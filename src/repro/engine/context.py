"""The unified execution context of the two-sided engine.

Every layer of the reproduction — RR sampling (PRIMA/IMM/TIM/SSA, the
GAP-aware Com-IC phases), the forward Monte-Carlo engines, the experiment
drivers, the CLI and the persistent sketch store — shares three pieces of
cross-cutting execution state:

* the **backend** choice (``sequential`` | ``batched`` | ``parallel``),
  historically resolved per call site from an explicit kwarg or
  ``$REPRO_RR_BACKEND``;
* the **randomness lineage** — a ``numpy.random.Generator`` plus, when the
  caller named an integer seed, the ``SeedSequence`` it came from, so
  per-world child streams can be spawned reproducibly;
* the **forward-world cursor** — the monotone pairing counter of the
  GAP-aware Com-IC sampler (RR set ``j`` is paired with forward world
  ``j mod |worlds|`` *across* the KPT and θ phases, and across a sketch
  store save/load/extend round trip).

:class:`EngineContext` owns all three.  It is a frozen dataclass: the
backend and triggering model are resolved exactly once at construction
(explicit argument > ``$REPRO_RR_BACKEND`` > ``batched``), and the only
mutable state it carries — the RNG stream and the world cursor — advances
through the held objects, never through rebinding.  One context therefore
names one reproducible execution: two runs handed equal contexts consume
identical randomness and identical world pairings on every layer.

:func:`ensure_context` is the one place loose arguments become a
context: every public entry point, the ``RRCollection`` constructor and
the store builders call it first, and internal helpers (the GAP sampler,
the forward adopter worlds) take the context it resolved.  ``ctx=`` is
the one spelling of backend and lineage; ``rng=`` and ``triggering=``
ride into a fresh context unchanged.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import List, Optional, Union

import numpy as np

__all__ = [
    "BACKEND_ENV",
    "BACKENDS",
    "EngineContext",
    "WorldCursor",
    "ensure_context",
    "is_batched",
    "resolve_backend",
]

#: Environment variable naming the default engine backend.
BACKEND_ENV = "REPRO_RR_BACKEND"

#: Recognized backend names.
BACKENDS = ("sequential", "batched", "parallel")

def resolve_backend(backend: Optional[str] = None) -> str:
    """Resolve a backend name: explicit > ``$REPRO_RR_BACKEND`` > batched.

    Raises :class:`ValueError` naming the valid backends and, when the
    offending value came from the environment, the ``$REPRO_RR_BACKEND``
    setting that supplied it — so a typo in the environment fails loudly at
    context construction instead of somewhere downstream.
    """
    if backend is None:
        env_value = os.environ.get(BACKEND_ENV) or None
        if env_value is None:
            return "batched"
        if env_value not in BACKENDS:
            raise ValueError(
                f"invalid RR backend {env_value!r} from ${BACKEND_ENV}; "
                f"valid backends are {BACKENDS}"
            )
        return env_value
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown RR backend {backend!r}; valid backends are {BACKENDS}"
        )
    return backend


def is_batched(backend: str) -> bool:
    """Whether a *resolved* backend name uses the vectorized kernels.

    ``batched`` and ``parallel`` share the numpy frontier kernels;
    ``sequential`` is the per-set/per-world Python reference path.  This
    is the one place backend capability is read off the name — raw
    ``backend != "sequential"`` string comparisons elsewhere are flagged
    by ``repro lint`` (RL002).  Unknown names raise ``ValueError`` so a
    typo cannot silently select a capability.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown RR backend {backend!r}; valid backends are {BACKENDS}"
        )
    return backend != "sequential"


class WorldCursor:
    """Monotone forward-world pairing cursor of the GAP-aware sampler.

    ``position`` counts every GAP RR set drawn so far; RR set ``j``
    (counting from the very first KPT sample) is paired with forward world
    ``(position at phase start + j) mod |worlds|``.  The cursor is the one
    piece of engine state that is *deliberately* mutable: the θ phase must
    continue from the KPT phase's offset, and a store-backed extension must
    continue from the persisted offset, which is exactly what sharing one
    cursor object achieves.
    """

    __slots__ = ("position",)

    def __init__(self, position: int = 0):
        self.position = int(position)

    def advance(self, count: int) -> int:
        """Consume ``count`` pairings; returns the pre-advance position."""
        if count < 0:
            raise ValueError(f"cannot advance cursor by {count}")
        start = self.position
        self.position += int(count)
        return start

    def __repr__(self) -> str:
        return f"WorldCursor(position={self.position})"


@dataclass(frozen=True, eq=False)
class EngineContext:
    """One reproducible execution: backend + RNG lineage + world cursor.

    Construct through :meth:`create` (which resolves the backend and seed
    exactly once) rather than the raw constructor.  Fields:

    ``backend``
        Resolved backend name — always one of :data:`BACKENDS`, never
        ``None``; the environment is *not* consulted again after
        construction.
    ``rng``
        The sampling stream every phase draws from, in call order.
    ``seed_seq``
        The ``SeedSequence`` the context was created from when the caller
        named an integer seed, else ``None``.  Carrying the lineage is what
        lets :meth:`spawn_generators` hand out independent per-world child
        streams that depend only on ``(seed, child index)`` — the
        reproducibility contract of the forward estimators.
    ``cursor``
        The shared :class:`WorldCursor` (see there).
    ``triggering``
        Optional resolved :class:`~repro.diffusion.triggering
        .TriggeringModel` the RR layers sample under (``None`` = IC fast
        path).
    """

    backend: str
    rng: np.random.Generator
    seed_seq: Optional[np.random.SeedSequence] = None
    cursor: WorldCursor = field(default_factory=WorldCursor)
    triggering: Optional[object] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        backend: Optional[str] = None,
        seed: Optional[Union[int, np.integer]] = None,
        rng: Optional[Union[np.random.Generator, int, np.integer]] = None,
        triggering=None,
        world_cursor: int = 0,
    ) -> "EngineContext":
        """Build a context, resolving backend/seed/triggering exactly once.

        ``seed`` and ``rng`` are mutually exclusive.  An integer (``seed``
        or an integer passed as ``rng`` — the historical convenience)
        establishes a ``SeedSequence`` lineage: ``ctx.rng`` is
        ``default_rng(SeedSequence(seed))`` — the same stream as
        ``default_rng(seed)`` — and per-world children can be spawned.  A
        ``Generator`` is adopted as-is with no lineage (its history is
        unknown); ``None`` falls back to the historical default stream,
        ``default_rng(0)``, also without lineage so that legacy
        byte-identical paths stay byte-identical.

        ``triggering`` accepts ``None``, a name (``"ic"`` / ``"lt"``) or a
        ``TriggeringModel`` instance; names are resolved here, once.
        """
        if seed is not None and rng is not None:
            raise ValueError("pass either seed= or rng=, not both")
        if rng is not None and isinstance(rng, (int, np.integer)):
            seed, rng = int(rng), None
        seed_seq: Optional[np.random.SeedSequence] = None
        if seed is not None:
            seed_seq = np.random.SeedSequence(int(seed))
            generator = np.random.default_rng(seed_seq)
        elif rng is not None:
            generator = rng
        else:
            generator = np.random.default_rng(0)
        trig = None
        if triggering is not None:
            from repro.diffusion.triggering import resolve_triggering

            trig = resolve_triggering(triggering)
        return cls(
            backend=resolve_backend(backend),
            rng=generator,
            seed_seq=seed_seq,
            cursor=WorldCursor(world_cursor),
            triggering=trig,
        )

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def with_stream(
        self,
        seed: Optional[Union[int, np.integer]] = None,
        rng: Optional[Union[np.random.Generator, int, np.integer]] = None,
        world_cursor: int = 0,
    ) -> "EngineContext":
        """Same policy (backend, triggering), fresh randomness and cursor.

        The experiment drivers use this to give every (algorithm, budget)
        run its own stream while the CLI-chosen backend applies
        fleet-wide.  The stream must be named explicitly (``seed`` or
        ``rng``): silently falling back to the default seed-0 stream
        would hand out byte-identical "fresh" streams.
        """
        if seed is None and rng is None:
            raise ValueError(
                "with_stream needs an explicit seed= or rng=; a derived "
                "context with the default stream would duplicate every "
                "other default-stream derivation"
            )
        derived = EngineContext.create(
            backend=self.backend,
            seed=seed,
            rng=rng,
            world_cursor=world_cursor,
        )
        return replace(derived, triggering=self.triggering)

    def with_triggering(self, triggering) -> "EngineContext":
        """Same stream and cursor, different (resolved) triggering model."""
        if triggering is not None:
            from repro.diffusion.triggering import resolve_triggering

            triggering = resolve_triggering(triggering)
        return replace(self, triggering=triggering)

    def spawn_generators(self, count: int) -> List[np.random.Generator]:
        """``count`` independent child generators from the seed lineage.

        Child ``i`` depends only on ``(seed, i + children spawned so
        far)`` — ``SeedSequence.spawn`` guarantees stream independence.
        Requires the context to carry a lineage (constructed from an
        integer seed); contexts adopted from a bare ``Generator`` cannot
        spawn reproducible children, and asking is a bug.
        """
        if self.seed_seq is None:
            raise ValueError(
                "this EngineContext was built from a Generator (or the "
                "default stream) and carries no SeedSequence lineage; "
                "construct it from an integer seed to spawn child streams"
            )
        children = self.seed_seq.spawn(int(count))
        return [np.random.default_rng(child) for child in children]

    @property
    def has_lineage(self) -> bool:
        """Whether per-world child streams can be spawned reproducibly."""
        return self.seed_seq is not None

    @property
    def is_batched(self) -> bool:
        """Whether this context's backend uses the vectorized kernels.

        True for ``batched`` and ``parallel`` (which share the numpy
        frontier kernels), False for ``sequential``.  The one supported
        spelling of backend capability checks — see :func:`is_batched`.
        """
        return is_batched(self.backend)

    @property
    def is_parallel(self) -> bool:
        """Whether this context additionally fans work over the pool."""
        return self.backend == "parallel"

    def __repr__(self) -> str:
        lineage = (
            f"seed_seq.entropy={self.seed_seq.entropy}"
            if self.seed_seq is not None
            else "no lineage"
        )
        return (
            f"EngineContext(backend={self.backend!r}, {lineage}, "
            f"cursor={self.cursor.position}, "
            f"triggering={self.triggering!r})"
        )


def ensure_context(
    ctx: Optional[EngineContext],
    *,
    rng: Optional[Union[np.random.Generator, int, np.integer]] = None,
    triggering=None,
    caller: str = "this function",
) -> EngineContext:
    """Resolve an entry point's execution state into one context.

    Every public entry point, the ``RRCollection`` constructor and the
    store builders call this first.  With ``ctx``
    given it is returned as-is; combining it with ``rng=`` is a
    :class:`TypeError` (two sources of truth for one stream).  A
    ``triggering`` argument overlays a context that carries none; two
    triggering sources are a :class:`TypeError` too.  Without ``ctx`` an
    equivalent context is built from ``rng=`` and ``triggering=``
    (``EngineContext.create``'s conventions).
    """
    if ctx is None:
        return EngineContext.create(rng=rng, triggering=triggering)
    if rng is not None:
        raise TypeError(f"{caller}: pass either ctx= or rng=, not both")
    if triggering is None:
        return ctx
    if ctx.triggering is not None:
        raise TypeError(
            f"{caller}: the context already carries a triggering "
            "model; pass either ctx= or triggering=, not both"
        )
    return ctx.with_triggering(triggering)
