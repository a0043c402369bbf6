"""Shared machinery of the Com-IC baselines RR-SIM+ and RR-CIM.

Both algorithms reduce two-item Com-IC seed selection to max-coverage over
GAP-aware RR sets with TIM-scale sample sizes; they differ in how much
forward simulation they spend estimating the complementary boost.

Sampling conventions (pinned by tests; see also
:class:`repro.rrset.batch.batch_generate_gap_rr_sets`):

* **Empty RR sets stay in the denominator.**  A GAP RR set is empty when
  its root fails the adoption coin; such sets can never be covered, and
  keeping them in ``θ`` makes ``n · F_R(S)`` an unbiased estimator of the
  expected adoption count (dropping them would estimate adoption
  *conditioned on a willing root*, inflating σ̂ by roughly ``1/E[q_root]``).
* **The forward-world cursor is monotone across phases.**  RR set ``j``
  (counted from the very first KPT sample) is paired with forward world
  ``j mod |worlds|``; the θ-generation phase continues from the KPT
  phase's offset rather than restarting at world 0, so every world is
  paired with the same expected number of RR sets and the KPT estimate and
  the θ collection draw from the same mixture distribution.  Since the
  engine refactor the cursor lives on the
  :class:`~repro.engine.EngineContext` (``ctx.cursor``), which is also how
  a persisted Com-IC sketch store resumes the pairing exactly where the
  saved θ phase stopped.

Both the ``sequential`` backend (per-set Python BFS, the historical
equivalence oracle) and the ``batched`` backend (flat ``(walk, node)``
frontier arrays with per-world boosted bitmaps) implement these
conventions; the backend is carried by the context (explicit argument >
``$REPRO_RR_BACKEND`` > batched).

:func:`comic_rr_sketch` exposes the full sampling state
(:class:`ComicSketchState`, whose θ-phase sets are an
:class:`~repro.rrset.rrgen.RRCollection`) so :mod:`repro.store` can persist
GAP sketches and extend them transparently; :func:`comic_rr_selection` is
the thin selection-only wrapper the baselines call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro import obs
from repro.diffusion.batch_forward import batch_simulate_comic
from repro.diffusion.comic import ComICModel, simulate_comic
from repro.engine import EngineContext, ensure_context, is_batched
from repro.graph.digraph import InfluenceGraph
from repro.rrset.batch import (
    batch_generate_gap_rr_sets,
    rr_set_widths,
)
from repro.rrset.bounds import log_binomial
from repro.rrset.node_selection import node_selection
from repro.rrset.rrgen import RRCollection

_KPT_SECONDS = obs.histogram(
    "repro_engine_phase_seconds",
    "Wall-clock of engine phases (sampling, selection, kpt, forward)",
    labels=("phase",),
)


@dataclass(frozen=True)
class ComICSeedSelection:
    """Selected seeds plus sampling statistics.

    ``coverage_fraction`` is ``covered / θ`` over *all* θ RR sets of the
    generation phase, including the empty ones produced by failed root
    adoption coins (see the module docstring for why this unbiased
    convention is the right one).
    """

    seeds: Tuple[int, ...]
    num_rr_sets: int
    coverage_fraction: float


@dataclass(frozen=True)
class ComicSketchState:
    """Everything a Com-IC RIS run produced, in persistable form.

    This is the state :mod:`repro.store` snapshots into a format-v2 sketch
    store: the θ-phase GAP RR collection (with the inverted index its
    selection built), the final forward-world bitmap the walks were paired
    against, the post-θ world cursor, and the GAP coin parameters — enough
    to both *serve* the selection warm and *extend* the θ phase as if the
    run had never been interrupted.
    """

    seeds: Tuple[int, ...]
    collection: RRCollection
    worlds_bitmap: np.ndarray
    world_cursor: int
    q_plain: float
    q_boosted: float
    kpt: float
    kpt_sets: int
    theta: int
    covered: int

    @property
    def members(self) -> np.ndarray:
        """The θ-phase sets' flat members (a live view; do not mutate)."""
        return self.collection.flat_arrays()[0]

    @property
    def offsets(self) -> np.ndarray:
        """The θ-phase sets' CSR offsets (a live view; do not mutate)."""
        return self.collection.flat_arrays()[1]

    @property
    def coverage_fraction(self) -> float:
        """``covered / θ`` (empty sets included; unbiased convention)."""
        return self.covered / self.theta if self.theta else 0.0

    @property
    def num_rr_sets(self) -> int:
        """Total RR sets sampled (KPT rounds + θ phase)."""
        return self.theta + self.kpt_sets

    def selection(self) -> ComICSeedSelection:
        """The selection-only projection the baselines report."""
        return ComICSeedSelection(
            seeds=self.seeds,
            num_rr_sets=self.num_rr_sets,
            coverage_fraction=self.coverage_fraction,
        )


def worlds_to_bitmap(
    worlds: Union[Sequence[Set[int]], np.ndarray], num_nodes: int
) -> np.ndarray:
    """Adopter worlds as a ``(max(1, |worlds|), n)`` boolean bitmap.

    Accepts either the sequential forward pass's list of adopter sets or
    an already-materialized bitmap (returned as bool, at least one row —
    the zero-row convention of the batched GAP sampler, where an empty
    world list degrades to a single all-plain world).
    """
    if isinstance(worlds, np.ndarray):
        bitmap = worlds.astype(bool, copy=False)
        if bitmap.shape[0]:
            return bitmap
        return np.zeros((1, num_nodes), dtype=bool)
    bitmap = np.zeros((max(1, len(worlds)), num_nodes), dtype=bool)
    for i, world in enumerate(worlds):
        if world:
            bitmap[
                i, np.fromiter(world, dtype=np.int64, count=len(world))
            ] = True
    return bitmap


def bitmap_to_worlds(bitmap: np.ndarray) -> List[Set[int]]:
    """Inverse of :func:`worlds_to_bitmap` (for the sequential sampler)."""
    return [set(np.flatnonzero(row).tolist()) for row in np.asarray(bitmap)]


def _forward_adopter_worlds(
    graph: InfluenceGraph,
    model: ComICModel,
    fixed_item: int,
    fixed_seeds: Sequence[int],
    num_worlds: int,
    rng: np.random.Generator,
    backend: str = "sequential",
) -> Union[List[Set[int]], np.ndarray]:
    """Adopters of the fixed item across sampled Com-IC worlds.

    The sequential backend runs one :func:`simulate_comic` per world and
    returns a list of adopter sets (the historical byte-identical path);
    the batched backend advances all worlds at once through
    :func:`repro.diffusion.batch_forward.batch_simulate_comic` and returns
    the ``(num_worlds, n)`` boolean bitmap the GAP sampler consumes
    directly.
    """
    seeds_a = fixed_seeds if fixed_item == 0 else ()
    seeds_b = fixed_seeds if fixed_item == 1 else ()
    if is_batched(backend):
        result = batch_simulate_comic(
            graph, model, seeds_a, seeds_b, num_worlds, rng
        )
        return result.adopters_bitmap(fixed_item)
    worlds: List[Set[int]] = []
    for _ in range(num_worlds):
        result = simulate_comic(
            graph, model, seeds_a=seeds_a, seeds_b=seeds_b, rng=rng
        )
        worlds.append(result.adopters_of(fixed_item))
    return worlds


def _gap_rr_set(
    graph: InfluenceGraph,
    rng: np.random.Generator,
    q_plain: float,
    q_boosted: float,
    boosted_nodes: Set[int],
) -> np.ndarray:
    """One GAP-aware RR set.

    Standard reverse BFS, but every node additionally passes a node-level
    adoption coin: probability ``q_boosted`` if the node adopts the
    complementary item in the paired forward world, ``q_plain`` otherwise.
    A failed coin removes the node (and stops traversal through it); a failed
    root yields an empty RR set, mirroring the "root must be willing to
    adopt" condition of the Com-IC RIS analysis.
    """
    n = graph.num_nodes
    root = int(rng.integers(0, n))
    q_root = q_boosted if root in boosted_nodes else q_plain
    if rng.random() >= q_root:
        return np.empty(0, dtype=np.int64)
    visited = {root}
    frontier = [root]
    while frontier:
        next_frontier: List[int] = []
        for v in frontier:
            sources = graph.in_neighbors(v)
            deg = sources.shape[0]
            if deg == 0:
                continue
            probs = graph.in_probabilities(v)
            coins = rng.random(deg)
            for u in sources[coins < probs]:
                u = int(u)
                if u in visited:
                    continue
                q_u = q_boosted if u in boosted_nodes else q_plain
                if rng.random() < q_u:
                    visited.add(u)
                    next_frontier.append(u)
        frontier = next_frontier
    return np.fromiter(visited, dtype=np.int64, count=len(visited))


class _GapSampler:
    """Backend-dispatching GAP RR-set source with a persistent world cursor.

    The cursor (an :class:`repro.engine.WorldCursor`, shared with the
    engine context when one is supplied) counts every RR set drawn so far
    and doubles as the forward-world pairing cursor: RR set ``j`` is paired
    with world ``(cursor at phase start + j) mod |worlds|``, monotone
    across the KPT and θ phases (the module-docstring convention) *and*
    across a sketch-store save/load/extend round trip.  ``set_worlds``
    re-points the sampler at a refreshed world list (RR-CIM's extra forward
    pass) without resetting the cursor.

    The sequential path calls :func:`_gap_rr_set` per set — byte-identical
    RNG stream to the historical loop — while the batched path maps the
    worlds onto a ``(|worlds|, n)`` boolean bitmap and samples whole rounds
    via :func:`repro.rrset.batch.batch_generate_gap_rr_sets`.
    """

    def __init__(
        self,
        graph: InfluenceGraph,
        rng: Optional[np.random.Generator] = None,
        q_plain: float = 0.0,
        q_boosted: float = 0.0,
        backend: Optional[str] = None,
        *,
        ctx: Optional[EngineContext] = None,
    ):
        if ctx is not None:
            if rng is not None or backend is not None:
                raise TypeError(
                    "_GapSampler: pass either ctx= or rng=/backend=, "
                    "not both"
                )
        else:
            # Backend resolution happens in the engine, nowhere else: the
            # legacy (rng, backend) spelling builds an equivalent context
            # (fresh cursor, default stream) and reads it back.
            ctx = EngineContext.create(backend=backend, rng=rng)
        self._graph = graph
        self._rng = ctx.rng
        self._q_plain = q_plain
        self._q_boosted = q_boosted
        self.backend = ctx.backend
        self._cursor = ctx.cursor
        self._worlds: List[Set[int]] = []
        self._bitmap = np.zeros((1, graph.num_nodes), dtype=bool)

    @property
    def used(self) -> int:
        """RR sets drawn so far — the forward-world pairing cursor."""
        return self._cursor.position

    @property
    def worlds_bitmap(self) -> np.ndarray:
        """The installed worlds as a boolean bitmap (persistence hook)."""
        if is_batched(self.backend):
            return self._bitmap
        return worlds_to_bitmap(self._worlds, self._graph.num_nodes)

    def set_worlds(
        self, worlds: Union[Sequence[Set[int]], np.ndarray]
    ) -> None:
        """Install the forward adopter worlds (cursor is preserved).

        Accepts either a list of adopter sets (the sequential forward
        pass) or a ``(num_worlds, n)`` boolean bitmap straight from the
        batched forward engine — the latter skips the per-set conversion
        entirely.
        """
        if isinstance(worlds, np.ndarray):
            if not is_batched(self.backend):
                raise ValueError(
                    "bitmap worlds require a vectorized backend; the "
                    "sequential sampler pairs walks with adopter sets"
                )
            self._worlds = []
            self._bitmap = worlds_to_bitmap(worlds, self._graph.num_nodes)
            return
        self._worlds = list(worlds)
        if not is_batched(self.backend):
            return
        self._bitmap = worlds_to_bitmap(
            self._worlds, self._graph.num_nodes
        )

    def sample(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``count`` GAP RR sets; returns flat ``(members, lengths)``.

        Lengths may be zero (failed root coins).  Advances the cursor.
        """
        start = self._cursor.advance(count)
        if is_batched(self.backend):
            world_ids = (
                start + np.arange(count, dtype=np.int64)
            ) % self._bitmap.shape[0]
            return batch_generate_gap_rr_sets(
                self._graph,
                self._rng,
                count,
                self._q_plain,
                self._q_boosted,
                self._bitmap,
                world_ids,
            )
        num_worlds = len(self._worlds)
        parts: List[np.ndarray] = []
        lengths = np.zeros(count, dtype=np.int64)
        for j in range(count):
            boosted = (
                self._worlds[(start + j) % num_worlds]
                if num_worlds
                else set()
            )
            rr = _gap_rr_set(
                self._graph, self._rng, self._q_plain, self._q_boosted, boosted
            )
            parts.append(rr)
            lengths[j] = rr.shape[0]
        members = (
            np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        )
        return members, lengths


def _tim_theta(
    n: int, k: int, epsilon: float, ell: float, kpt_guess: float
) -> int:
    """TIM's sample size ``θ = λ / KPT`` (the baselines are TIM-based)."""
    lam = (
        (8.0 + 2.0 * epsilon)
        * n
        * (ell * math.log(max(n, 2)) + log_binomial(n, k) + math.log(2.0))
        / (epsilon * epsilon)
    )
    return int(math.ceil(lam / max(kpt_guess, 1.0)))


def _estimate_kpt(
    graph: InfluenceGraph,
    k: int,
    ell: float,
    sampler: _GapSampler,
) -> Tuple[float, int]:
    """TIM-style KPT estimation on GAP-aware RR sets.

    Each geometric round's ``c_i`` sets come from one ``sampler.sample``
    call — a single vectorized pass on the batched backend, the historical
    per-set loop (identical RNG stream *and* float-accumulation order) on
    the sequential one.
    """
    n = graph.num_nodes
    m = max(graph.num_edges, 1)
    log2n = max(math.log2(n), 2.0)
    used = 0
    for i in range(1, max(2, int(log2n))):
        c_i = int(
            math.ceil((6.0 * ell * math.log(n) + 6.0 * math.log(log2n)) * 2.0**i)
        )
        members, lengths = sampler.sample(c_i)
        used += c_i
        if is_batched(sampler.backend):
            widths = rr_set_widths(graph, members, lengths)
            total = float(np.sum(1.0 - (1.0 - widths / m) ** k))
        else:
            # Keep the historical left-to-right float accumulation so the
            # sequential backend's KPT (and hence θ) is byte-identical.
            offsets = np.concatenate(([0], np.cumsum(lengths)))
            total = 0.0
            for j in range(c_i):
                rr = members[offsets[j] : offsets[j + 1]]
                width = sum(graph.in_degree(int(v)) for v in rr)
                kappa = 1.0 - (1.0 - width / m) ** k
                total += kappa
        if total / c_i > 1.0 / (2.0**i):
            return n * total / (2.0 * c_i), used
    return 1.0, used


def comic_rr_sketch(
    graph: InfluenceGraph,
    model: ComICModel,
    select_item: int,
    fixed_seeds: Sequence[int],
    budget: int,
    epsilon: float,
    ell: float,
    ctx: EngineContext,
    num_forward_worlds: int,
    extra_forward_pass: bool,
) -> ComicSketchState:
    """Run the full Com-IC RIS pipeline and return its persistable state.

    This is :func:`comic_rr_selection` with the internals exposed: the
    θ-phase flat arrays, the final worlds bitmap and the post-θ cursor ride
    along so :mod:`repro.store` can persist the sketch (its extension path
    rebuilds a :class:`_GapSampler` directly from the persisted state and
    never re-enters the forward/KPT phases).  ``budget`` must be positive
    (the selection wrapper handles the trivial cases).
    """
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    n = graph.num_nodes
    fixed_item = 1 - select_item
    q_plain = model.q(select_item, has_other=False)
    q_boosted = model.q(select_item, has_other=True)

    sampler = _GapSampler(
        graph, q_plain=q_plain, q_boosted=q_boosted, ctx=ctx
    )
    worlds = _forward_adopter_worlds(
        graph,
        model,
        fixed_item,
        fixed_seeds,
        num_forward_worlds,
        ctx.rng,
        backend=ctx.backend,
    )
    sampler.set_worlds(worlds)
    with obs.span("rrset.kpt"), _KPT_SECONDS.timer(phase="kpt"):
        kpt, kpt_sets = _estimate_kpt(graph, budget, ell, sampler)
    theta = _tim_theta(n, budget, epsilon, ell, kpt)

    if extra_forward_pass:
        refreshed = _forward_adopter_worlds(
            graph,
            model,
            fixed_item,
            fixed_seeds,
            num_forward_worlds,
            ctx.rng,
            backend=ctx.backend,
        )
        if isinstance(worlds, np.ndarray):
            worlds = np.concatenate([worlds, refreshed], axis=0)
        else:
            worlds = worlds + refreshed
        sampler.set_worlds(worlds)

    # θ GAP-aware RR sets (world pairing continues from the KPT phase's
    # cursor) in the collection type PRIMA selects over.
    collection = RRCollection(graph, ctx=ctx)
    collection.append_flat(*sampler.sample(theta))
    seeds, fraction = node_selection(collection, budget)
    return ComicSketchState(
        seeds=tuple(seeds),
        collection=collection,
        worlds_bitmap=sampler.worlds_bitmap,
        world_cursor=sampler.used,
        q_plain=q_plain,
        q_boosted=q_boosted,
        kpt=kpt,
        kpt_sets=kpt_sets,
        theta=theta,
        covered=round(fraction * theta),
    )


def comic_rr_selection(
    graph: InfluenceGraph,
    model: ComICModel,
    select_item: int,
    fixed_seeds: Sequence[int],
    budget: int,
    epsilon: float,
    ell: float,
    rng: Optional[np.random.Generator] = None,
    num_forward_worlds: int = 20,
    extra_forward_pass: bool = False,
    backend: Optional[str] = None,
    *,
    ctx: Optional[EngineContext] = None,
) -> ComICSeedSelection:
    """Select ``budget`` seeds for ``select_item`` given the other item's.

    ``extra_forward_pass`` doubles the forward-simulation effort (RR-CIM's
    generality tax: it re-estimates the boost after a first selection round).

    The context's backend picks the GAP sampling path (``sequential``, or
    the vectorized path for ``batched``/``parallel``); the removed legacy
    ``backend=`` keyword raises ``TypeError`` while ``rng=`` stays
    first-class.
    The returned ``coverage_fraction`` divides by the full θ — empty RR
    sets from failed root adoption coins included — and RR set ``j``
    (counting from the first KPT sample) is paired with forward world
    ``j mod |worlds|``: the θ phase continues from the KPT phase's world
    cursor (``ctx.cursor``) instead of restarting at world 0.  See the
    module docstring for the rationale of both conventions.
    """
    ctx = ensure_context(
        ctx, backend=backend, rng=rng, caller="comic_rr_selection"
    )
    if budget <= 0:
        return ComICSeedSelection(seeds=(), num_rr_sets=0, coverage_fraction=0.0)
    state = comic_rr_sketch(
        graph,
        model,
        select_item,
        fixed_seeds,
        budget,
        epsilon,
        ell,
        ctx,
        num_forward_worlds,
        extra_forward_pass,
    )
    return state.selection()
