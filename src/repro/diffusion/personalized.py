"""UIC with *personalized* noise — the §5 extension.

The base model samples one noise value per item per diffusion (population-
level uncertainty).  §5 proposes personalized noise — every user draws her
own noise terms — noting the approximation guarantee does not carry over.
This module implements that variant so its empirical behaviour can be
studied: each node samples a private noise world the first time it has to
make an adoption decision, and keeps it for the rest of the diffusion.

The ablation benchmark (``benchmarks/bench_ablation_personalized.py``) uses
this to show bundleGRD remains a strong heuristic under personalization even
though Theorem 2 no longer applies.

The sequential simulator runs the base model's world loop
(:func:`repro.diffusion.uic.propagate_uic`) with one utility table per
node and stays the byte-identical reference oracle.  Estimation runs on
the batched forward engine by default
(:func:`repro.diffusion.batch_forward.batch_simulate_uic_personalized`:
the UIC chunk loop with per-(world, node) noise tables sampled lazily on
first contact).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.diffusion.batch_forward import (
    batch_simulate_uic_personalized,
    supports_batched_uic,
    warn_uic_item_cap_fallback,
)
from repro.diffusion.montecarlo import require_ic, run_worlds
from repro.diffusion.uic import UICResult, propagate_uic
from repro.diffusion.worlds import LiveEdgeGraph
from repro.engine import ensure_context
from repro.graph.digraph import InfluenceGraph
from repro.utility.model import UtilityModel


def simulate_uic_personalized(
    graph: InfluenceGraph,
    model: UtilityModel,
    allocation: Iterable[Tuple[int, int]],
    rng: np.random.Generator,
    edge_world: Optional[LiveEdgeGraph] = None,
) -> UICResult:
    """One UIC possible world where every node has private noise.

    Semantics match :func:`repro.diffusion.uic.simulate_uic` except that the
    utility table consulted by node ``v`` is built from ``v``'s own sampled
    noise world (drawn lazily on first contact and then fixed).
    """
    tables: Dict[int, np.ndarray] = {}

    def table_of(v: int) -> np.ndarray:
        table = tables.get(v)
        if table is None:
            table = model.utility_table(model.sample_noise_world(rng))
            tables[v] = table
        return table

    # No shared noise world exists: the result reports zeros.
    return propagate_uic(
        graph, model, allocation, rng, table_of,
        np.zeros(model.num_items), edge_world,
    )


def estimate_welfare_personalized(
    graph: InfluenceGraph,
    model: UtilityModel,
    allocation: Iterable[Tuple[int, int]],
    num_samples: int = 200,
    rng=None,
    backend: Optional[str] = None,
    *,
    ctx=None,
) -> float:
    """MC estimate of expected welfare under personalized noise.

    The context's backend follows the engine convention (explicit >
    ``$REPRO_RR_BACKEND`` > batched; see
    :func:`repro.diffusion.montecarlo.run_worlds`).  The batched kernel,
    :func:`repro.diffusion.batch_forward.batch_simulate_uic_personalized`,
    is statistically equivalent to the sequential per-world loop, which
    remains the byte-identical historical path.  Item universes beyond
    ``MAX_BATCH_ITEMS`` fall back to sequential with a ``UserWarning``.
    Edges are IC's: a context carrying another triggering model raises
    ``ValueError``.

    ``rng`` may be a ``Generator``, an integer seed (expanded through
    ``SeedSequence`` — sequential worlds draw from independent per-world
    child streams), or ``None`` (the historical seed-0 stream).
    """
    ctx = ensure_context(
        ctx, backend=backend, rng=rng, caller="estimate_welfare_personalized"
    )
    require_ic(ctx, "estimate_welfare_personalized")
    if ctx.is_batched:
        warn_uic_item_cap_fallback(model)
    allocation = list(allocation)
    kernel = partial(
        batch_simulate_uic_personalized, model=model, allocation=allocation
    )

    def simulate(rng) -> float:
        return simulate_uic_personalized(graph, model, allocation, rng).welfare

    values = run_worlds(
        graph, ctx, num_samples, "diffusion.welfare_personalized", kernel,
        simulate, supports_batched_uic(model, None),
    )
    return float(values.mean())
