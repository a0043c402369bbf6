"""RR-CIM — the general Com-IC seed-selection algorithm (Lu et al. [36]).

RR-CIM drops RR-SIM's self-reliance assumption: it spends additional forward
Com-IC simulation ("sandwiched" between two sampling passes) to estimate each
node's complementary boost before the reverse-sampling phase.  In the
mutually complementary configurations of the paper's experiments its
allocations match RR-SIM+'s; it is simply slower — which is exactly how the
paper reports it (Fig. 5: RR-CIM is the slowest baseline).

Like :mod:`repro.baselines.rr_sim`, this is a faithful-role reimplementation
on TIM-scale sample sizes; see DESIGN.md §11.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.baselines._comic_common import ComICSeedSelection, comic_rr_selection
from repro.core.allocation import Allocation
from repro.diffusion.comic import ComICModel
from repro.diffusion.montecarlo import require_ic
from repro.engine import ensure_context
from repro.graph.digraph import InfluenceGraph
from repro.rrset.imm import imm


@dataclass(frozen=True)
class RRCIMResult:
    """RR-CIM output: the two-item allocation plus sampling statistics."""

    allocation: Allocation
    seeds_fixed_item: Tuple[int, ...]
    seeds_selected_item: Tuple[int, ...]
    num_rr_sets: int


def rr_cim(
    graph: InfluenceGraph,
    model: ComICModel,
    budgets: Tuple[int, int],
    select_item: int = 1,
    epsilon: float = 0.5,
    ell: float = 1.0,
    rng: Optional[np.random.Generator] = None,
    num_forward_worlds: int = 20,
    *,
    ctx=None,
) -> RRCIMResult:
    """Run RR-CIM for two items.

    Parameters mirror :func:`repro.baselines.rr_sim.rr_sim_plus`
    (including the ``ctx`` engine context, whose triggering model must be
    IC's); by default RR-CIM optimizes the *other* item than RR-SIM+ does,
    matching the paper's setup ("given seed set of item i2 (resp. i1),
    RR-SIM+ (resp. RR-CIM) finds seed set of item i1 (resp. i2)").
    """
    ctx = ensure_context(ctx, rng=rng, caller="rr_cim")
    require_ic(ctx, "rr_cim")
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
        extra_forward_pass=True,
        ctx=ctx,
    )
    pairs = [(v, other_item) for v in seeds_other] + [
        (v, select_item) for v in selection.seeds
    ]
    return RRCIMResult(
        allocation=Allocation(pairs, num_items=2),
        seeds_fixed_item=tuple(seeds_other),
        seeds_selected_item=tuple(selection.seeds),
        num_rr_sets=selection.num_rr_sets,
    )
