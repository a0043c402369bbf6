"""Offline store construction: single-stream, sharded-parallel, incremental.

Entry points, one output type, one way to make it: every builder ends in
:meth:`~repro.store.sketch_store.SketchStore.from_collection` over a live
:class:`~repro.rrset.rrgen.RRCollection`, which supplies the CSR arrays,
inverted index, cover counts and RNG state.

* :func:`build_store` — the reference PRIMA path: PRIMA with the full
  budget vector, then an independent estimation collection, both drawn
  from one context stream.  For a fixed seed the persisted seed order and
  estimator arrays are byte-identical to running those two steps in
  memory — the golden contract the serving tests pin.
* :func:`build_sharded` — index construction on all cores: the estimation
  collection is split into shards, each sampled by a process-pool worker
  from its own ``SeedSequence`` child, then appended in shard order to one
  collection, whose inverted index is built once in bulk.  Shard results
  depend only on ``(seed, shard_id)``, so the merged store is bit-identical
  whatever the process count (including in-process execution with
  ``processes=0``).
  PRIMA itself stays sequential — its geometric search is adaptive — so the
  parallel win is on the θ-sized estimator, which dominates at serving
  scale.
* :func:`build_comic_store` — the GAP-aware Com-IC path (format v2): run
  the RR-SIM+/RR-CIM pipeline (IMM for the fixed item, forward adopter
  worlds, GAP KPT + θ phases) through one
  :class:`~repro.engine.EngineContext` and persist the θ-phase sketch
  together with the forward-world bitmap, the post-θ world cursor and the
  GAP coin parameters — everything a later process needs to serve the
  selection warm or extend the θ phase transparently.
* :func:`extend_store` — incremental θ-extension, dispatching on the
  store's model: restore the persisted RNG state, wrap the stored arrays
  and inverted index in a live ``RRCollection.from_flat``, grow it (by
  its own sampler for PRIMA; by a
  :class:`~repro.baselines._comic_common._GapSampler` with the restored
  world cursor and bitmap for Com-IC, which then re-selects), and
  snapshot it; the collection merges the delta into the inverted index
  incrementally.  The save/load round trip is transparent: the extension
  is byte-identical to growing the original live state by the same
  amount.

Every builder accepts a :class:`~repro.engine.EngineContext` (``ctx=``);
the removed legacy ``seed=``/``backend=`` kwargs raise ``TypeError``
naming the ``ctx=`` replacement.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from repro import obs
from repro.engine import EngineContext
from repro.engine.context import reject_legacy_kwarg
from repro.graph.digraph import InfluenceGraph
from repro.rrset.prima import prima
from repro.rrset.node_selection import node_selection
from repro.rrset.rrgen import RRCollection
from repro.store.format import WORLDS_DTYPE
from repro.store.sketch_store import SketchStore, SketchStoreError


_BUILD_SECONDS = obs.histogram(
    "repro_store_build_seconds",
    "Wall-clock of store construction and extension entry points",
    labels=("builder",),
)


def _timed_builder(name: str):
    """Bracket a builder entry point with its phase timer and span."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with _BUILD_SECONDS.timer(builder=name), obs.span(
                "store.build", builder=name
            ):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def _triggering_name(triggering) -> Optional[str]:
    """Validate that a triggering argument is persistable (None/'ic'/'lt').

    Resolved :class:`~repro.diffusion.triggering.TriggeringModel`
    instances of the IC/LT families map back to their names (the engine
    context carries instances, the store header carries names).
    """
    if triggering is None or triggering in ("ic", "lt"):
        return triggering
    from repro.diffusion.triggering import (
        IndependentCascadeTriggering,
        LinearThresholdTriggering,
    )

    if isinstance(triggering, IndependentCascadeTriggering):
        return "ic"
    if isinstance(triggering, LinearThresholdTriggering):
        return "lt"
    raise SketchStoreError(
        f"sketch stores persist triggering by name ('ic' / 'lt'); got "
        f"{triggering!r} — arbitrary TriggeringModel instances cannot be "
        "reconstructed at load time"
    )


def _builder_context(
    ctx: Optional[EngineContext],
    seed: Optional[int],
    backend: Optional[str],
    triggering,
    caller: str,
) -> EngineContext:
    """The builders' context normalizer.

    Builders historically took an integer ``seed`` (default 0) and a
    ``backend`` string; both were removed with the EngineContext
    migration and now raise ``TypeError`` naming the replacement
    (``EngineContext.create(seed=..., backend=...)`` passed as ``ctx=``).
    """
    if seed is not None:
        reject_legacy_kwarg(caller, "seed=")
    if backend is not None:
        reject_legacy_kwarg(caller, "backend=")
    if ctx is not None:
        if triggering is not None:
            if ctx.triggering is not None:
                raise TypeError(
                    f"{caller}: the context already carries a triggering "
                    "model; pass either ctx= or triggering=, not both"
                )
            return ctx.with_triggering(triggering)
        return ctx
    return EngineContext.create(seed=0, triggering=triggering)


def _check_build_args(
    graph: InfluenceGraph, max_budget: int, estimation_rr_sets: int
) -> int:
    """Validate a PRIMA build before any sampling; return the capped budget.

    ``max_budget`` is capped at ``n``; a non-positive result or a negative
    ``estimation_rr_sets`` raises ``ValueError``.
    """
    capped = min(int(max_budget), graph.num_nodes)
    if capped <= 0:
        raise ValueError(f"max_budget must be positive, got {max_budget}")
    if estimation_rr_sets < 0:
        raise ValueError(
            f"estimation_rr_sets must be non-negative, got {estimation_rr_sets}"
        )
    return capped


@_timed_builder("build_store")
def build_store(
    graph: InfluenceGraph,
    max_budget: int,
    *,
    epsilon: float = 0.5,
    ell: float = 1.0,
    seed: Optional[int] = None,
    estimation_rr_sets: int = 10_000,
    triggering: Optional[str] = None,
    backend: Optional[str] = None,
    ctx: Optional[EngineContext] = None,
) -> SketchStore:
    """Build a store: PRIMA seed order plus an independent estimation set.

    One context stream runs PRIMA with the full budget vector
    ``(b, b−1, …, 1)`` (``b`` = ``max_budget`` capped at ``n``), so every
    prefix of the seed order carries Definition 1's guarantee for its size,
    and then samples ``estimation_rr_sets`` fresh RR sets for unbiased
    spread answers.  The snapshot keeps the stream's state, so
    :func:`extend_store` continues it.  Without ``ctx`` the builder uses
    the seed-0 lineage (the historical default).
    """
    ctx = _builder_context(ctx, seed, backend, triggering, "build_store")
    # Fail fast on unpersistable triggering models (before the PRIMA run).
    name = _triggering_name(ctx.triggering)
    capped = _check_build_args(graph, max_budget, estimation_rr_sets)
    order = prima(
        graph, list(range(capped, 0, -1)), epsilon=epsilon, ell=ell, ctx=ctx
    )
    estimator = RRCollection(graph, ctx=ctx)
    estimator.extend_to(int(estimation_rr_sets))
    return SketchStore.from_collection(
        graph, estimator, order.seeds, capped, epsilon, ell, triggering=name
    )


@_timed_builder("build_sharded")
def build_sharded(
    graph: InfluenceGraph,
    max_budget: int,
    *,
    num_shards: int = 4,
    processes: Optional[int] = None,
    epsilon: float = 0.5,
    ell: float = 1.0,
    seed: Optional[int] = None,
    estimation_rr_sets: int = 10_000,
    triggering: Optional[str] = None,
    backend: Optional[str] = None,
    ctx: Optional[EngineContext] = None,
) -> SketchStore:
    """Build a store with the estimation collection sampled in parallel.

    ``estimation_rr_sets`` is split near-evenly over ``num_shards`` shards;
    each shard samples from its own ``SeedSequence`` child (streams are
    independent by construction), so the result is deterministic in
    ``(seed, num_shards)`` and independent of ``processes`` — ``0`` runs
    the shards in-process (useful for tests and as a fallback where
    process pools are unavailable), ``k > 1`` fans them over the
    persistent shared-memory pool (:mod:`repro.parallel`: the graph's CSR
    arrays are published into shared memory once and workers attach
    zero-copy, so repeated builds against the same graph pay neither
    worker spawn nor graph transfer).  ``None`` uses the pool's current
    configuration (``$REPRO_PARALLEL_PROCESSES`` > effective cores).

    The context must carry a ``SeedSequence`` lineage (construct it from an
    integer seed): shard streams are its spawned children.  The sharded
    estimator necessarily consumes different randomness than
    :func:`build_store`'s single stream: stores from the two builders are
    *statistically* equivalent, not byte-identical.  The shards are
    appended in order to a collection rooted at a dedicated extension
    child, whose state the store persists, so :func:`extend_store` remains
    deterministic on sharded stores too.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    ctx = _builder_context(ctx, seed, backend, triggering, "build_sharded")
    if not ctx.has_lineage:
        raise ValueError(
            "build_sharded needs a seed-rooted EngineContext (integer "
            "seed): shard streams are SeedSequence children of the root"
        )
    name = _triggering_name(ctx.triggering)
    capped = _check_build_args(graph, max_budget, estimation_rr_sets)
    # children[0]: PRIMA; [1..num_shards]: shards; [-1]: extension stream.
    children = ctx.seed_seq.spawn(num_shards + 2)

    def child_context(child: np.random.SeedSequence) -> EngineContext:
        return EngineContext.create(
            backend=ctx.backend,
            rng=np.random.default_rng(child),
            triggering=name,
        )

    order = prima(
        graph,
        list(range(capped, 0, -1)),
        epsilon=epsilon,
        ell=ell,
        ctx=child_context(children[0]),
    )

    base, extra = divmod(int(estimation_rr_sets), num_shards)
    counts = [base + (1 if i < extra else 0) for i in range(num_shards)]
    jobs = [
        (children[1 + i], counts[i], name, ctx.backend)
        for i in range(num_shards)
        if counts[i] > 0
    ]
    from repro.parallel import get_pool

    parts = get_pool(processes).map_shards(
        "rr_shard", graph, jobs, triggering=ctx.triggering
    )
    estimator = RRCollection(graph, ctx=child_context(children[-1]))
    for members, lengths in parts:
        estimator.append_flat(members, lengths)
    return SketchStore.from_collection(
        graph, estimator, order.seeds, capped, epsilon, ell, triggering=name
    )


# ----------------------------------------------------------------------
# Com-IC (GAP-aware) sketch stores — format v2
# ----------------------------------------------------------------------
def _comic_meta(model, state, select_item, fixed_seeds, extra) -> dict:
    """The ``comic`` header block: GAP params + run bookkeeping."""
    meta = {
        "q_a_empty": float(model.q_a_empty),
        "q_a_given_b": float(model.q_a_given_b),
        "q_b_empty": float(model.q_b_empty),
        "q_b_given_a": float(model.q_b_given_a),
        "q_plain": float(state.q_plain),
        "q_boosted": float(state.q_boosted),
        "select_item": int(select_item),
        "fixed_seeds": [int(v) for v in fixed_seeds],
        "kpt": float(state.kpt),
        "kpt_sets": int(state.kpt_sets),
        "covered": int(state.covered),
    }
    meta.update(extra)
    return meta


@_timed_builder("build_comic_store")
def build_comic_store(
    graph: InfluenceGraph,
    model,
    budget: int,
    *,
    select_item: int = 0,
    fixed_seeds=None,
    fixed_budget: Optional[int] = None,
    epsilon: float = 0.5,
    ell: float = 1.0,
    num_forward_worlds: int = 20,
    extra_forward_pass: bool = False,
    seed: Optional[int] = None,
    backend: Optional[str] = None,
    ctx: Optional[EngineContext] = None,
) -> SketchStore:
    """Build a GAP-aware Com-IC sketch store (RR-SIM+ / RR-CIM pipeline).

    Runs exactly the pipeline :func:`repro.baselines.rr_sim.rr_sim_plus`
    (``extra_forward_pass=False``) or :func:`repro.baselines.rr_cim.rr_cim`
    (``True``) runs for ``select_item``: when ``fixed_seeds`` is ``None``
    the other item's seeds come from an IMM call on the same context
    stream (budget ``fixed_budget``, default ``budget``), then the forward
    worlds, the GAP KPT phase and the θ phase all consume the one context.
    For a fixed seed the persisted seeds are byte-identical to the
    in-memory baseline's ``seeds_selected_item`` — the golden serving
    contract for Com-IC stores.

    The snapshot keeps the θ-phase GAP collection, the forward-world
    bitmap, the post-θ world cursor and the RNG state, so
    :func:`extend_store` continues the θ phase exactly where the build
    stopped.
    """
    from repro.baselines._comic_common import comic_rr_sketch
    from repro.rrset.imm import imm

    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    ctx = _builder_context(ctx, seed, backend, None, "build_comic_store")
    if ctx.triggering is not None:
        raise SketchStoreError(
            "comic stores sample under the Com-IC GAP model; a context "
            "carrying a triggering model is not supported (its effect on "
            "the IMM phase could not be recorded in the store header)"
        )
    if fixed_seeds is None:
        want = fixed_budget if fixed_budget is not None else budget
        fixed_seeds = imm(
            graph, int(want), epsilon=epsilon, ell=ell, ctx=ctx
        ).seeds
    state = comic_rr_sketch(
        graph,
        model,
        select_item,
        fixed_seeds,
        int(budget),
        epsilon,
        ell,
        ctx,
        num_forward_worlds,
        extra_forward_pass,
    )
    return SketchStore.from_collection(
        graph,
        state.collection,
        state.seeds,
        max_budget=min(int(budget), graph.num_nodes),
        epsilon=epsilon,
        ell=ell,
        world_cursor=state.world_cursor,
        model="comic",
        comic=_comic_meta(
            model,
            state,
            select_item,
            fixed_seeds,
            {
                "num_forward_worlds": int(num_forward_worlds),
                "extra_forward_pass": bool(extra_forward_pass),
                "theta": int(state.theta),
            },
        ),
        worlds=np.asarray(state.worlds_bitmap, dtype=WORLDS_DTYPE),
    )


def _extend_comic(
    store: SketchStore,
    graph: InfluenceGraph,
    add: int,
    backend: Optional[str],
) -> SketchStore:
    """Com-IC θ-extension: restore sampler state, sample, re-select.

    Rebuilds the :class:`~repro.baselines._comic_common._GapSampler`
    around the persisted RNG state, world cursor and forward-world bitmap,
    wraps the stored arrays and index in a collection, appends ``add``
    more GAP RR sets (byte-identical to uninterrupted growth), and re-runs
    the selection on the grown collection so the stored seeds stay the
    selection the full sketch implies.
    """
    from repro.baselines._comic_common import (
        _GapSampler,
        bitmap_to_worlds,
    )

    rng = store.restore_rng()
    # create() validates the backend (legacy overrides and persisted
    # headers alike) and seeds the cursor at the persisted position.
    ctx = EngineContext.create(
        backend=backend if backend is not None else store.backend,
        rng=rng,
        world_cursor=int(store.world_cursor),
    )
    sampler = _GapSampler(
        graph,
        q_plain=float(store.comic["q_plain"]),
        q_boosted=float(store.comic["q_boosted"]),
        ctx=ctx,
    )
    bitmap = np.asarray(store.worlds, dtype=WORLDS_DTYPE)
    if ctx.is_batched:
        sampler.set_worlds(bitmap)
    else:
        sampler.set_worlds(bitmap_to_worlds(bitmap))

    collection = RRCollection.from_flat(
        graph,
        None,
        store.members,
        store.offsets,
        index=(store.idx_sets, store.idx_indptr),
        ctx=ctx,
    )
    collection.append_flat(*sampler.sample(int(add)))
    seeds, fraction = node_selection(collection, store.max_budget)
    comic = dict(store.comic)
    comic["covered"] = round(fraction * collection.num_sets)
    # θ is the size of the (now grown) θ-phase collection; keep the
    # header consistent with the arrays so covered/θ stays a fraction.
    comic["theta"] = collection.num_sets
    return SketchStore.from_collection(
        graph,
        collection,
        seeds,
        max_budget=store.max_budget,
        epsilon=store.epsilon,
        ell=store.ell,
        world_cursor=sampler.used,
        model="comic",
        comic=comic,
        worlds=bitmap,
    )


@_timed_builder("extend_store")
def extend_store(
    store: SketchStore,
    graph: InfluenceGraph,
    add: int,
    *,
    # repro-lint: disable=RL002 documented persisted-state override, see docstring
    backend: Optional[str] = None,
) -> SketchStore:
    """Grow a loaded store by ``add`` RR sets without regenerating.

    Restores the persisted RNG state, wraps the stored arrays in live
    sampling state (an :class:`~repro.rrset.rrgen.RRCollection` for PRIMA
    stores, a GAP sampler with the persisted world cursor and bitmap for
    Com-IC stores; copy-on-load — the source store/file is untouched),
    samples the extra sets, and merges the delta into the inverted index
    incrementally.  Returns a new :class:`SketchStore`; callers persist it
    with ``save``.

    Continuing the persisted stream (and, for Com-IC, the persisted world
    cursor) makes the round trip *transparent*: save → load →
    ``extend_store(Δ)`` produces byte-for-byte the arrays that growing the
    live state by Δ (no save/load) would have.  (It is not byte-identical
    to building with θ+Δ up front — the batched sampler consumes
    randomness per generation call — only statistically equivalent, like
    any two growth schedules.)

    Unlike the builders, this function takes no ``ctx``: the execution
    state an extension must use — RNG stream, world cursor, and by
    default the backend — *is the persisted state*, so accepting a
    context would only invite silently ignoring most of it.  ``backend``
    remains a first-class explicit override of the persisted backend
    (e.g. to continue a sequential store batched; doing so trades the
    byte-identity guarantee for speed, deliberately and visibly).
    """
    if add < 0:
        raise ValueError(f"add must be non-negative, got {add}")
    store.verify_graph(graph)
    if store.model == "comic":
        return _extend_comic(store, graph, add, backend)
    from repro.diffusion.triggering import resolve_triggering

    trig = (
        resolve_triggering(store.triggering)
        if store.triggering is not None
        else None
    )
    rng = store.restore_rng()
    collection = RRCollection.from_flat(
        graph,
        rng,
        store.members,
        store.offsets,
        index=(store.idx_sets, store.idx_indptr),
        triggering=trig,
        backend=backend if backend is not None else store.backend,
    )
    collection.generate(int(add))
    return SketchStore.from_collection(
        graph,
        collection,
        store.seed_order,
        max_budget=store.max_budget,
        epsilon=store.epsilon,
        ell=store.ell,
        triggering=store.triggering,
        world_cursor=store.world_cursor,
    )
