"""RR-SIM+ — Com-IC seed selection for complementary items (Lu et al. [36]).

Given the seed set of one item (chosen by IMM), RR-SIM+ selects the other
item's seeds to maximize its expected adoption count under the two-item
Com-IC model.  The original algorithm samples RR sets under the
*self-reliant* mutual-complementarity condition: during the reverse BFS each
node additionally passes a node-level coin reflecting its GAP adoption
probability — ``q_{A|B}`` if the node would adopt item B in the sampled world
(estimated from forward simulations of B's fixed seeds; this is the "+" in
RR-SIM+), ``q_{A|∅}`` otherwise.  Sample sizes follow TIM (the original is
TIM-based), which is why these baselines generate over an order of magnitude
more RR sets than the IMM-based algorithms (Fig. 6).

This is a faithful-role reimplementation (the original C++ is unavailable);
DESIGN.md §11 records the substitution.  The properties the paper's
experiments rely on — allocations that converge to copying the other item's
seeds under strongly complementary configurations, TIM-scale sample counts,
and much slower wall-clock — hold by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.baselines._comic_common import (
    ComICSeedSelection,
    comic_rr_selection,
)
from repro.core.allocation import Allocation
from repro.diffusion.comic import ComICModel
from repro.diffusion.montecarlo import require_ic
from repro.engine import ensure_context
from repro.graph.digraph import InfluenceGraph
from repro.rrset.imm import imm


@dataclass(frozen=True)
class RRSIMResult:
    """RR-SIM+ output: the two-item allocation plus sampling statistics."""

    allocation: Allocation
    seeds_fixed_item: Tuple[int, ...]
    seeds_selected_item: Tuple[int, ...]
    num_rr_sets: int


def rr_sim_plus(
    graph: InfluenceGraph,
    model: ComICModel,
    budgets: Tuple[int, int],
    select_item: int = 0,
    epsilon: float = 0.5,
    ell: float = 1.0,
    rng: Optional[np.random.Generator] = None,
    num_forward_worlds: int = 20,
    *,
    ctx=None,
) -> RRSIMResult:
    """Run RR-SIM+ for two items.

    Parameters
    ----------
    graph, model:
        The network and the Com-IC GAP parameters.
    budgets:
        ``(b_A, b_B)`` seed budgets for items 0 and 1.
    select_item:
        Which item's seeds to optimize (the other item's seeds come from a
        plain IMM call first, as in §4.3.1.2 (1)).
    num_forward_worlds:
        Forward Com-IC simulations of the fixed item used to estimate
        per-world adopter sets for the "+" boost.
    ctx:
        :class:`repro.engine.EngineContext` shared by every phase (IMM,
        forward worlds, GAP KPT/θ), including the forward-world cursor.
        Com-IC edges are IC's: a context carrying another triggering
        model raises ``ValueError`` before any sampling.
    """
    ctx = ensure_context(ctx, rng=rng, caller="rr_sim_plus")
    require_ic(ctx, "rr_sim_plus")
    other_item = 1 - select_item
    seeds_other = imm(
        graph, budgets[other_item], epsilon=epsilon, ell=ell, ctx=ctx
    ).seeds
    selection: ComICSeedSelection = comic_rr_selection(
        graph=graph,
        model=model,
        select_item=select_item,
        fixed_seeds=seeds_other,
        budget=budgets[select_item],
        epsilon=epsilon,
        ell=ell,
        num_forward_worlds=num_forward_worlds,
        extra_forward_pass=False,
        ctx=ctx,
    )
    pairs = [(v, other_item) for v in seeds_other] + [
        (v, select_item) for v in selection.seeds
    ]
    return RRSIMResult(
        allocation=Allocation(pairs, num_items=2),
        seeds_fixed_item=tuple(seeds_other),
        seeds_selected_item=tuple(selection.seeds),
        num_rr_sets=selection.num_rr_sets,
    )
