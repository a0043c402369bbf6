"""Monte-Carlo estimation of expected social welfare and adoption counts.

The expected social welfare of an allocation is
``ρ(𝒮) = E_{W^E}[E_{W^N}[ρ_W(𝒮)]]`` (§4.1.1); both expectations are estimated
jointly by sampling full possible worlds.  A fixed noise world can be supplied
to estimate ``ρ_{W^N}(𝒮)`` (the quantity the block-accounting analysis fixes).

Both estimators accept the unified :class:`repro.engine.EngineContext`
(``ctx=``); ``rng=`` builds an equivalent context (the removed legacy
``backend=`` keyword raises ``TypeError``).  ``rng`` may also be a plain
integer seed — it is expanded through ``SeedSequence`` so that on the
sequential engine each world draws from its own spawned child stream
(world ``i`` depends only on ``(seed, i)``), matching
:func:`repro.diffusion.comic.estimate_comic_spread`.  On the ``parallel``
backend the worlds are sharded over the persistent worker pool
(:mod:`repro.parallel`), each shard running the batched kernels on its
slice from its own ``SeedSequence`` child.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

from repro import obs
from repro.diffusion.batch_forward import (
    batch_uic_counts,
    batch_uic_welfare,
    supports_batched_uic,
    warn_uic_item_cap_fallback,
)
from repro.diffusion.triggering import sample_triggering_world
from repro.diffusion.uic import simulate_uic
from repro.engine import ensure_context
from repro.graph.digraph import InfluenceGraph
from repro.utility.model import UtilityModel
from repro.utility.noise import NoiseWorld

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


def _forward_engine(parallel: bool, batched: bool, supported: bool) -> str:
    if parallel:
        return "parallel"
    if batched and supported:
        return "batched"
    return "sequential"


@dataclass(frozen=True)
class WelfareEstimate:
    """MC estimate with uncertainty: mean ± stderr over ``num_samples``."""

    mean: float
    stderr: float
    num_samples: int

    def confidence_interval(self, z: float = 1.96) -> Tuple[float, float]:
        """Normal-approximation confidence interval."""
        return (self.mean - z * self.stderr, self.mean + z * self.stderr)


def estimate_welfare(
    graph: InfluenceGraph,
    model: UtilityModel,
    allocation: Iterable[Tuple[int, int]],
    num_samples: int = 200,
    rng=None,
    noise_world: Optional[NoiseWorld] = None,
    triggering=None,
    backend: Optional[str] = None,
    *,
    ctx=None,
) -> WelfareEstimate:
    """Estimate ``ρ(𝒮)`` by simulating ``num_samples`` possible worlds.

    With ``noise_world`` given, only edge worlds vary, estimating the
    fixed-noise welfare ``ρ_{W^N}(𝒮)``.  With ``triggering`` given
    (``"lt"``, ``"ic"`` or a TriggeringModel), edge worlds are sampled from
    that triggering model instead of the IC fast path — the §5 extension.

    The context's backend picks the forward engine (``sequential`` |
    ``batched`` | ``parallel``; default batched).  ``parallel`` shards the
    worlds over the shared-memory worker pool (:mod:`repro.parallel`) when
    the context carries a seed lineage, and otherwise degrades to batched
    with a warning.  The batched engine advances all worlds
    at once (:func:`repro.diffusion.batch_forward.batch_uic_welfare`)
    whenever the (model, triggering) pair is vectorizable — at most
    :data:`~repro.diffusion.batch_forward.MAX_BATCH_ITEMS` items, and a
    triggering model with an explicit trigger distribution (IC/LT/any
    ``DistributionTriggering``); other pairs fall back to the sequential
    per-world loop, which is also the byte-identical historical path.

    ``rng`` may be a ``Generator``, an integer seed (expanded through
    ``SeedSequence`` — sequential worlds draw from independent per-world
    child streams), or ``None`` (the historical seed-0 stream).
    """
    if num_samples <= 0:
        raise ValueError(f"num_samples must be positive, got {num_samples}")
    ctx = ensure_context(
        ctx,
        backend=backend,
        rng=rng,
        triggering=triggering,
        caller="estimate_welfare",
    )
    trig_model = ctx.triggering
    if trig_model is not None:
        trig_model.validate(graph)
    allocation = list(allocation)
    batched = ctx.is_batched
    supported = supports_batched_uic(model, trig_model)
    if batched and not supported:
        warn_uic_item_cap_fallback(model)
    parallel = ctx.is_parallel and supported
    if parallel and not ctx.has_lineage:
        from repro.parallel import lineage_fallback

        lineage_fallback("estimate_welfare")
        parallel = False
    engine = _forward_engine(parallel, batched, supported)
    with obs.span(
        "diffusion.welfare", engine=engine, samples=int(num_samples)
    ), _FORWARD_SECONDS.timer(phase="forward"):
        if parallel:
            from repro.parallel import run_forward_shards

            values = run_forward_shards(
                "uic_welfare_shard",
                graph,
                ctx,
                num_samples,
                (model, allocation, noise_world, trig_model),
                triggering=trig_model,
            )
        elif batched and supported:
            values = batch_uic_welfare(
                graph,
                model,
                allocation,
                num_samples,
                ctx.rng,
                noise_world=noise_world,
                triggering=trig_model,
            )
        else:
            world_rngs = (
                ctx.spawn_generators(num_samples) if ctx.has_lineage else None
            )
            values = np.empty(num_samples, dtype=np.float64)
            for i in range(num_samples):
                world_rng = (
                    world_rngs[i] if world_rngs is not None else ctx.rng
                )
                edge_world = (
                    sample_triggering_world(graph, trig_model, world_rng)
                    if trig_model is not None
                    else None
                )
                result = simulate_uic(
                    graph, model, allocation, world_rng,
                    noise_world=noise_world, edge_world=edge_world,
                )
                values[i] = result.welfare
    _FORWARD_WORLDS.inc(num_samples, engine=engine)
    mean = float(values.mean())
    stderr = (
        float(values.std(ddof=1) / math.sqrt(num_samples))
        if num_samples > 1
        else 0.0
    )
    return WelfareEstimate(mean=mean, stderr=stderr, num_samples=num_samples)


def estimate_adoption(
    graph: InfluenceGraph,
    model: UtilityModel,
    allocation: Iterable[Tuple[int, int]],
    num_samples: int = 200,
    rng=None,
    item: Optional[int] = None,
    backend: Optional[str] = None,
    *,
    ctx=None,
) -> WelfareEstimate:
    """Estimate expected adoptions (all items, or one item's adopter count).

    This is the σ-style objective the multi-item IM baselines optimize; the
    paper contrasts it with welfare.  ``ctx``/``backend``/``rng`` follow
    :func:`estimate_welfare`'s conventions, including integer seeds via
    ``SeedSequence`` children.
    """
    if num_samples <= 0:
        raise ValueError(f"num_samples must be positive, got {num_samples}")
    if item is not None and not 0 <= item < model.num_items:
        raise ValueError(
            f"item {item} outside the model's {model.num_items} items"
        )
    ctx = ensure_context(
        ctx, backend=backend, rng=rng, caller="estimate_adoption"
    )
    allocation = list(allocation)
    batched = ctx.is_batched
    supported = supports_batched_uic(model, None)
    if batched and not supported:
        warn_uic_item_cap_fallback(model)
    parallel = ctx.is_parallel and supported
    if parallel and not ctx.has_lineage:
        from repro.parallel import lineage_fallback

        lineage_fallback("estimate_adoption")
        parallel = False
    engine = _forward_engine(parallel, batched, supported)
    with obs.span(
        "diffusion.adoption", engine=engine, samples=int(num_samples)
    ), _FORWARD_SECONDS.timer(phase="forward"):
        if parallel:
            from repro.parallel import run_forward_shards

            values = run_forward_shards(
                "uic_adoption_shard",
                graph,
                ctx,
                num_samples,
                (model, allocation, item),
            )
        elif batched and supported:
            values = batch_uic_counts(
                graph, model, allocation, item, num_samples, ctx.rng
            ).astype(np.float64)
        else:
            world_rngs = (
                ctx.spawn_generators(num_samples) if ctx.has_lineage else None
            )
            values = np.empty(num_samples, dtype=np.float64)
            for i in range(num_samples):
                world_rng = (
                    world_rngs[i] if world_rngs is not None else ctx.rng
                )
                result = simulate_uic(graph, model, allocation, world_rng)
                if item is None:
                    values[i] = result.total_adoptions()
                else:
                    values[i] = len(result.adopters_of(item))
    _FORWARD_WORLDS.inc(num_samples, engine=engine)
    mean = float(values.mean())
    stderr = (
        float(values.std(ddof=1) / math.sqrt(num_samples))
        if num_samples > 1
        else 0.0
    )
    return WelfareEstimate(mean=mean, stderr=stderr, num_samples=num_samples)
