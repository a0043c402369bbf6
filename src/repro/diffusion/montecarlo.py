"""The one Monte-Carlo driver behind every forward estimator.

The forward estimators differ only in what one world computes and how the
per-world values reduce; :func:`run_worlds` owns the rest.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro import obs
from repro.diffusion.triggering import IndependentCascadeTriggering
from repro.graph.digraph import InfluenceGraph

_FORWARD_SECONDS = obs.histogram(
    "repro_engine_phase_seconds",
    "Wall-clock of engine phases (sampling, selection, kpt, forward)",
    labels=("phase",),
)
_FORWARD_WORLDS = obs.counter(
    "repro_forward_worlds_total",
    "Possible worlds simulated by the forward estimators, by engine",
    labels=("engine",),
)


def require_ic(ctx, caller: str) -> None:
    """Raise ``ValueError`` unless the context's edge worlds are IC's."""
    triggering = ctx.triggering
    if triggering is not None and not isinstance(
        triggering, IndependentCascadeTriggering
    ):
        raise ValueError(
            f"{caller} simulates IC edge worlds only; got the triggering "
            f"model {type(triggering).__name__}"
        )


def run_worlds(
    graph: InfluenceGraph,
    ctx,
    num_samples: int,
    span: str,
    kernel: Callable[..., np.ndarray],
    simulate: Callable[[np.random.Generator], float],
    supported: bool = True,
) -> np.ndarray:
    """Per-world float64 values of ``num_samples`` worlds on ``ctx``'s backend.

    ``kernel(graph, num_worlds=, rng=)`` is the estimator's picklable
    batched kernel (a ``functools.partial``); ``simulate(rng)`` runs one
    world on the sequential simulator.  When the kernel does not cover
    the estimator's arguments (``supported`` false) every backend runs
    ``simulate``.  ``parallel`` shards the worlds over the worker pool,
    each shard running ``kernel`` from its own ``SeedSequence`` child,
    and without a seed lineage warns and runs batched; ``batched`` calls
    ``kernel`` once on ``ctx.rng``; ``sequential`` calls ``simulate``
    once per world, on the lineage's per-world children when there is a
    lineage and on ``ctx.rng`` otherwise.

    ``span`` (``diffusion.<name>``) records ``engine`` and ``samples``;
    ``estimate_<name>`` is the estimator the fallback warning names.
    """
    if num_samples <= 0:
        raise ValueError(f"num_samples must be positive, got {num_samples}")
    batched = ctx.is_batched and supported
    parallel = ctx.is_parallel and supported
    if parallel and not ctx.has_lineage:
        from repro.parallel import lineage_fallback

        lineage_fallback("estimate_" + span.partition(".")[2])
        parallel = False
    engine = "parallel" if parallel else "batched" if batched else "sequential"
    with obs.span(
        span, engine=engine, samples=int(num_samples)
    ), _FORWARD_SECONDS.timer(phase="forward"):
        if parallel:
            from repro.parallel import run_forward_shards

            values = run_forward_shards(graph, ctx, num_samples, kernel)
        elif batched:
            values = kernel(graph, num_worlds=num_samples, rng=ctx.rng)
        else:
            rngs = (
                ctx.spawn_generators(num_samples)
                if ctx.has_lineage
                else [ctx.rng] * num_samples
            )
            values = np.fromiter(
                map(simulate, rngs), dtype=np.float64, count=num_samples
            )
    _FORWARD_WORLDS.inc(num_samples, engine=engine)
    return np.asarray(values, dtype=np.float64)
