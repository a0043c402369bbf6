"""IMM — Influence Maximization via Martingales (Tang et al. 2015).

Single-budget influence maximization with the ``(1 − 1/e − ε)`` guarantee,
implemented as the single-budget specialization of the shared PRIMA machinery
(Algorithm 2 with ``|b| = 1`` reduces exactly to IMM plus the Chen-2018
regeneration fix).  IMM is what the item-disj and bundle-disj baselines call,
and the unit the Table 6 memory comparison is expressed in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.engine import ensure_context
from repro.graph.digraph import InfluenceGraph
from repro.rrset.prima import PRIMAResult, prima


@dataclass(frozen=True)
class IMMResult:
    """Output of an IMM run: ordered seeds and sampling statistics."""

    seeds: Tuple[int, ...]
    num_rr_sets: int
    num_rr_sets_search: int
    coverage_fraction: float
    epsilon: float
    ell: float


def imm(
    graph: InfluenceGraph,
    k: int,
    epsilon: float = 0.5,
    ell: float = 1.0,
    rng: Optional[np.random.Generator] = None,
    ell_prime: Optional[float] = None,
    triggering=None,
    *,
    ctx=None,
) -> IMMResult:
    """Select ``k`` seeds with IMM.

    Parameters mirror :func:`repro.rrset.prima.prima` (including the
    ``ctx`` spelling of the engine context); ``ell_prime`` lets the
    Table 6 experiment align IMM's failure-probability bookkeeping with
    PRIMA's so the RR-set counts are directly comparable.
    """
    ctx = ensure_context(ctx, rng=rng, triggering=triggering, caller="imm")
    result: PRIMAResult = prima(
        graph,
        [k],
        epsilon=epsilon,
        ell=ell,
        ell_prime=ell_prime,
        ctx=ctx,
    )
    return IMMResult(
        seeds=result.seeds,
        num_rr_sets=result.num_rr_sets,
        num_rr_sets_search=result.num_rr_sets_search,
        coverage_fraction=result.coverage_fraction,
        epsilon=epsilon,
        ell=ell,
    )


def imm_seed_pool(
    graph: InfluenceGraph,
    total_seeds: int,
    epsilon: float = 0.5,
    ell: float = 1.0,
    rng: Optional[np.random.Generator] = None,
    *,
    ctx=None,
) -> Tuple[int, ...]:
    """Ordered pool of ``total_seeds`` nodes from a single IMM invocation.

    The item-disj baseline asks IMM for ``Σ_i b_i`` nodes at once and then
    carves the pool up across items; this helper is that call.
    """
    ctx = ensure_context(ctx, rng=rng, caller="imm_seed_pool")
    return imm(graph, total_seeds, epsilon=epsilon, ell=ell, ctx=ctx).seeds
