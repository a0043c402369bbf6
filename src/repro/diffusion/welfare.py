"""Monte-Carlo estimation of expected social welfare and adoption counts.

The expected social welfare of an allocation is
``ρ(𝒮) = E_{W^E}[E_{W^N}[ρ_W(𝒮)]]`` (§4.1.1); both expectations are estimated
jointly by sampling full possible worlds.  A fixed noise world can be supplied
to estimate ``ρ_{W^N}(𝒮)`` (the quantity the block-accounting analysis fixes).

Each estimator is a batched kernel, a one-world sequential simulation and
a mean ± stderr; :func:`repro.diffusion.montecarlo.run_worlds` runs the
worlds on the context's backend.  Both accept the unified
:class:`repro.engine.EngineContext` (``ctx=``) and honour its triggering
model; ``rng=`` builds an equivalent context (the removed legacy
``backend=`` keyword raises ``TypeError``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Optional, Tuple

import numpy as np

from repro.diffusion.batch_forward import (
    batch_uic_counts,
    batch_uic_welfare,
    supports_batched_uic,
    warn_uic_item_cap_fallback,
)
from repro.diffusion.montecarlo import run_worlds
from repro.diffusion.triggering import sample_triggering_world
from repro.diffusion.uic import UICResult, simulate_uic
from repro.engine import ensure_context
from repro.graph.digraph import InfluenceGraph
from repro.utility.model import UtilityModel
from repro.utility.noise import NoiseWorld


@dataclass(frozen=True)
class WelfareEstimate:
    """MC estimate with uncertainty: mean ± stderr over ``num_samples``."""

    mean: float
    stderr: float
    num_samples: int

    def confidence_interval(self, z: float = 1.96) -> Tuple[float, float]:
        """Normal-approximation confidence interval."""
        return (self.mean - z * self.stderr, self.mean + z * self.stderr)


def _estimate(values: np.ndarray) -> WelfareEstimate:
    """Mean ± stderr of per-world values."""
    count = values.shape[0]
    stderr = (
        float(values.std(ddof=1) / math.sqrt(count)) if count > 1 else 0.0
    )
    return WelfareEstimate(
        mean=float(values.mean()), stderr=stderr, num_samples=count
    )


def _uic_triggering(graph, model, ctx):
    """The context's triggering model, validated on ``graph``.

    Also warns when a batched context must run an item universe beyond
    ``MAX_BATCH_ITEMS`` on the sequential simulator.
    """
    triggering = ctx.triggering
    if triggering is not None:
        triggering.validate(graph)
    if ctx.is_batched:
        warn_uic_item_cap_fallback(model, stacklevel=4)
    return triggering


def _simulate_world(
    graph, model, allocation, triggering, rng, noise_world=None
) -> UICResult:
    """One sequential UIC world, its edge world drawn from ``triggering``.

    ``None`` keeps :func:`simulate_uic`'s lazy IC coins.
    """
    edge_world = (
        sample_triggering_world(graph, triggering, rng)
        if triggering is not None
        else None
    )
    return simulate_uic(
        graph, model, allocation, rng,
        noise_world=noise_world, edge_world=edge_world,
    )


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
    ``batched`` | ``parallel``; default batched; see
    :func:`~repro.diffusion.montecarlo.run_worlds`).  The batched kernel
    (:func:`repro.diffusion.batch_forward.batch_uic_welfare`) covers at
    most :data:`~repro.diffusion.batch_forward.MAX_BATCH_ITEMS` items and
    triggering models with an explicit trigger distribution (IC/LT/any
    ``DistributionTriggering``); other pairs run the sequential per-world
    loop, which is also the byte-identical historical path.

    ``rng`` may be a ``Generator``, an integer seed (expanded through
    ``SeedSequence`` — sequential worlds draw from independent per-world
    child streams), or ``None`` (the historical seed-0 stream).
    """
    ctx = ensure_context(
        ctx,
        backend=backend,
        rng=rng,
        triggering=triggering,
        caller="estimate_welfare",
    )
    trig = _uic_triggering(graph, model, ctx)
    allocation = list(allocation)
    kernel = partial(
        batch_uic_welfare,
        model=model,
        allocation=allocation,
        noise_world=noise_world,
        triggering=trig,
    )

    def simulate(rng) -> float:
        return _simulate_world(
            graph, model, allocation, trig, rng, noise_world
        ).welfare

    values = run_worlds(
        graph, ctx, num_samples, "diffusion.welfare", kernel, simulate,
        supports_batched_uic(model, trig),
    )
    return _estimate(values)


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
    ``SeedSequence`` children and the context's triggering model.
    """
    if item is not None and not 0 <= item < model.num_items:
        raise ValueError(
            f"item {item} outside the model's {model.num_items} items"
        )
    ctx = ensure_context(
        ctx, backend=backend, rng=rng, caller="estimate_adoption"
    )
    trig = _uic_triggering(graph, model, ctx)
    allocation = list(allocation)
    kernel = partial(
        batch_uic_counts,
        model=model,
        allocation=allocation,
        item=item,
        triggering=trig,
    )

    def simulate(rng) -> int:
        result = _simulate_world(graph, model, allocation, trig, rng)
        if item is None:
            return result.total_adoptions()
        return len(result.adopters_of(item))

    values = run_worlds(
        graph, ctx, num_samples, "diffusion.adoption", kernel, simulate,
        supports_batched_uic(model, trig),
    )
    return _estimate(values)
