"""PRIMA — PRefix preserving Influence Maximization Algorithm (Algorithm 2).

PRIMA extends IMM to a *vector* of budgets ``b₁ ≥ b₂ ≥ ... ≥ b_{|b|}`` so that
one ordered seed set ``S_b`` (``b = b₁``) is returned whose every prefix of
size ``b_i`` is a ``(1 − 1/e − ε)``-approximation for budget ``b_i``, with
probability at least ``1 − 1/n^ℓ`` (Definition 1).  Three ingredients beyond
IMM:

* the union bound over budgets: ``ℓ′ = log_n(n^ℓ · |b|)`` replaces ``ℓ`` in
  the sample-size bounds (Lemma 9);
* RR-set *reuse* across budgets — the geometric search for budget ``b_{s+1}``
  continues on the collection accumulated for ``b_s``, and on a budget switch
  the seed set is the prefix of the previous ``NodeSelection`` output (no
  redundant selection calls);
* the final ``NodeSelection`` runs on RR sets regenerated *from scratch*
  (Chen 2018's fix [13] to IMM's martingale analysis), after which the top-b
  ordered seeds are returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.engine import ensure_context
from repro.graph.digraph import InfluenceGraph
from repro.rrset.bounds import SampleBounds, adjusted_ell, ell_prime_for
from repro.rrset.node_selection import node_selection
from repro.rrset.rrgen import RRCollection


@dataclass(frozen=True)
class PRIMAResult:
    """Output of a PRIMA run.

    ``seeds`` is ordered: the top ``b_i`` nodes serve budget ``b_i``.
    ``num_rr_sets`` counts the *final* (from scratch) collection, the number
    reported in the paper's memory experiments (Fig. 6, Table 6);
    ``num_rr_sets_search`` counts the collection accumulated during the
    geometric search phase.
    """

    seeds: Tuple[int, ...]
    budgets: Tuple[int, ...]
    num_rr_sets: int
    num_rr_sets_search: int
    lower_bounds: Tuple[float, ...]
    coverage_fraction: float
    epsilon: float
    ell: float

    def seeds_for_budget(self, budget: int) -> Tuple[int, ...]:
        """The prefix of ``seeds`` serving the given budget."""
        if budget < 0 or budget > len(self.seeds):
            raise ValueError(
                f"budget {budget} outside [0, {len(self.seeds)}]"
            )
        return self.seeds[:budget]


def prima(
    graph: InfluenceGraph,
    budgets: Sequence[int],
    epsilon: float = 0.5,
    ell: float = 1.0,
    rng: Optional[np.random.Generator] = None,
    ell_prime: Optional[float] = None,
    triggering=None,
    *,
    ctx=None,
) -> PRIMAResult:
    """Run PRIMA (Algorithm 2 of the paper).

    Parameters
    ----------
    graph:
        The social network.
    budgets:
        Item budget vector ``b`` (any order; sorted non-increasing
        internally as Definition 1 requires).  Duplicates are fine.
    epsilon, ell:
        Approximation slack and confidence exponent; the paper's defaults are
        ``ε = 0.5``, ``ℓ = 1``.
    rng:
        Randomness source; defaults to a fixed-seed generator.
    ell_prime:
        Override for the union-bound exponent ``ℓ′`` (used by the Table 6
        experiment to run IMM and PRIMA with aligned failure probabilities).
    triggering:
        ``None`` (IC fast path), ``"ic"``, ``"lt"`` or a
        :class:`~repro.diffusion.triggering.TriggeringModel` — the paper's
        results carry over to any triggering model (§5).
    ctx:
        :class:`repro.engine.EngineContext` carrying backend (the RR
        sampling path: ``"sequential"`` | ``"batched"`` | ``"parallel"``),
        RNG lineage and triggering in one object; mutually exclusive with
        ``rng``.

    Returns
    -------
    PRIMAResult
        Ordered seeds of size ``max(budgets)`` plus sampling statistics.
    """
    ctx = ensure_context(
        ctx, rng=rng, triggering=triggering, caller="prima"
    )
    if not budgets:
        raise ValueError("budgets must be non-empty")
    sorted_budgets = sorted((int(b) for b in budgets), reverse=True)
    if sorted_budgets[-1] < 0:
        raise ValueError(f"budgets must be non-negative, got {sorted_budgets}")
    n = graph.num_nodes
    b_max = min(sorted_budgets[0], n)
    # b_max == 0 covers the empty graph (budgets are clamped to n); a 1-node
    # graph runs the full machinery and returns (0,) like any other graph.
    if b_max == 0:
        return PRIMAResult(
            seeds=(),
            budgets=tuple(sorted_budgets),
            num_rr_sets=0,
            num_rr_sets_search=0,
            lower_bounds=(),
            coverage_fraction=0.0,
            epsilon=epsilon,
            ell=ell,
        )
    lifted_ell = adjusted_ell(ell, n)
    if ell_prime is None:
        ell_prime = ell_prime_for(lifted_ell, n, len(sorted_budgets))
    bounds = SampleBounds(n=n, epsilon=epsilon, ell_prime=ell_prime)
    eps_prime = bounds.epsilon_prime

    collection = RRCollection(graph, ctx=ctx)
    # Duplicate budget values add nothing (identical λ*), and re-running the
    # coverage loop on a grown collection would inflate θ; process each
    # distinct value once.  The union bound ℓ′ above still uses the full |b|.
    distinct_budgets = sorted(set(sorted_budgets), reverse=True)
    s = 0  # index into distinct_budgets
    i = 1  # geometric search level
    budget_switch = False
    last_selection: Optional[List[int]] = None
    lower_bounds: List[float] = []
    theta_final = 0.0
    imax = bounds.max_search_level

    with obs.span(
        "rrset.prima", budgets=len(sorted_budgets), b_max=int(b_max),
        backend=ctx.backend,
    ):
        with obs.span("rrset.prima.search"):
            while i <= imax and s < len(distinct_budgets):
                k = min(distinct_budgets[s], n)
                x = n / (2.0**i)
                theta_i = bounds.lambda_prime(k) / x
                collection.extend_to(int(math.ceil(theta_i)))
                if budget_switch and last_selection is not None:
                    seeds_k = last_selection[:k]
                    frac = collection.coverage_fraction(seeds_k)
                else:
                    seeds_k, frac = node_selection(collection, k)
                    last_selection = seeds_k
                if n * frac >= (1.0 + eps_prime) * x:
                    lb = n * frac / (1.0 + eps_prime)
                    lower_bounds.append(lb)
                    theta_k = bounds.lambda_star(k) / lb
                    collection.extend_to(int(math.ceil(theta_k)))
                    theta_final = max(theta_final, theta_k)
                    s += 1
                    budget_switch = True
                else:
                    i += 1
                    budget_switch = False

            if s < len(distinct_budgets):
                # Geometric search exhausted with budgets remaining: fall
                # back to the most conservative lower bound LB = 1 for the
                # current (largest remaining λ*) budget; this dominates all
                # remaining budgets since budgets are sorted non-increasing
                # and λ*_k is monotone in k.
                k = min(distinct_budgets[s], n)
                theta_k = bounds.lambda_star(k) / 1.0
                theta_final = max(theta_final, theta_k)
                lower_bounds.extend([1.0] * (len(distinct_budgets) - s))

        search_count = collection.num_sets

        # Chen-2018 fix: the final NodeSelection must run on RR sets that
        # were *not* used to determine θ — regenerate the whole collection.
        with obs.span(
            "rrset.prima.final", theta=int(math.ceil(theta_final))
        ):
            collection.reset()
            collection.extend_to(int(math.ceil(theta_final)))
            final_seeds, final_frac = node_selection(collection, b_max)

    return PRIMAResult(
        seeds=tuple(final_seeds),
        budgets=tuple(sorted_budgets),
        num_rr_sets=collection.num_sets,
        num_rr_sets_search=search_count,
        lower_bounds=tuple(lower_bounds),
        coverage_fraction=final_frac,
        epsilon=epsilon,
        ell=ell,
    )
