"""Random reverse-reachable (RR) set generation and flat storage.

An RR set is sampled by choosing a node ``v`` uniformly at random and running
a *reverse* BFS from it, where each incoming edge ``(u, v')`` of a visited
node ``v'`` is live independently with probability ``p_{u v'}`` (Borgs et al.
[6]).  The defining property is

    σ(S) = n · E[ 1{ S ∩ R ≠ ∅ } ]

for every seed set ``S``, which turns influence maximization into max-coverage
over a collection of RR sets.

Two samplers produce identical distributions:

* ``backend="sequential"`` — :func:`generate_rr_set`, one Python-level BFS
  per set.  Kept as the exact-equivalence reference: for a fixed RNG seed it
  reproduces the historical per-set RNG stream bit for bit.
* ``backend="batched"`` — :mod:`repro.rrset.batch`, which expands many
  frontiers per numpy call (flat ``(walk, node)`` arrays over the reverse
  CSR).  The default; an order of magnitude faster on non-trivial graphs.

:class:`RRCollection` stores the collection *flat*: one concatenated int64
``members`` array plus an ``offsets`` array (CSR over sets), instead of a
Python list of arrays.  The inverted index (node -> RR-set ids) that greedy
``NodeSelection`` needs is rebuilt lazily in bulk — one ``argsort`` of the
members by node plus a ``bincount`` for the indptr — rather than via
per-element list appends; with the geometric sample-size growth of
IMM/PRIMA's search the amortized rebuild cost stays linear-log in the total
width.  ``w(R)`` totals are tracked for the paper's running-time accounting.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.diffusion.triggering import (
    TriggeringModel,
    needs_trigger_csr,
    segmented_positions,
)
from repro.engine.context import EngineContext, is_batched
from repro.graph.digraph import InfluenceGraph
from repro.rrset.batch import (
    batch_generate_rr_sets,
    build_trigger_csr,
    supports_batched,
)

_RR_SETS_GENERATED = obs.counter(
    "repro_rrset_generated_total",
    "RR sets sampled into collections, by sampling backend",
    labels=("backend",),
)
_PHASE_SECONDS = obs.histogram(
    "repro_engine_phase_seconds",
    "Wall-clock of engine phases (sampling, selection, kpt, forward)",
    labels=("phase",),
)


def generate_rr_set(
    graph: InfluenceGraph,
    rng: np.random.Generator,
    root: Optional[int] = None,
    triggering: Optional[TriggeringModel] = None,
) -> np.ndarray:
    """Sample one RR set; returns the visited nodes (root included).

    ``root`` defaults to a uniformly random node.  With ``triggering`` given,
    each visited node's live in-edges come from one sampled trigger set
    (supporting LT and any other triggering model); the default is the IC
    fast path (independent per-edge coins).
    """
    n = graph.num_nodes
    if n == 0:
        raise ValueError("cannot sample an RR set from an empty graph")
    if root is None:
        root = int(rng.integers(0, n))
    visited = {root}
    frontier = [root]
    while frontier:
        next_frontier: List[int] = []
        for v in frontier:
            if triggering is not None:
                live_sources = triggering.sample_trigger_set(graph, v, rng)
            else:
                sources = graph.in_neighbors(v)
                deg = sources.shape[0]
                if deg == 0:
                    continue
                probs = graph.in_probabilities(v)
                coins = rng.random(deg)
                live_sources = sources[coins < probs]
            for u in live_sources:
                u = int(u)
                if u not in visited:
                    visited.add(u)
                    next_frontier.append(u)
        frontier = next_frontier
    return np.fromiter(visited, dtype=np.int64, count=len(visited))


def build_inverted_index(
    members: np.ndarray, offsets: np.ndarray, num_nodes: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Bulk-build the node -> RR-set-id inverted index over flat storage.

    Returns ``(idx_sets, idx_indptr)``: RR-set ids grouped by node (stable —
    ascending set id within each node), CSR over nodes.  One stable
    ``argsort`` of the members by node plus a ``bincount`` for the indptr;
    shared by :class:`RRCollection` and the ad-hoc greedy in
    :mod:`repro.rrset.node_selection`.
    """
    num_sets = offsets.shape[0] - 1
    set_ids = np.repeat(
        np.arange(num_sets, dtype=np.int64), np.diff(offsets)
    )
    order = np.argsort(members, kind="stable")
    idx_sets = set_ids[order]
    counts = np.bincount(members, minlength=num_nodes)
    idx_indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=idx_indptr[1:])
    return idx_sets, idx_indptr


def merge_inverted_index(
    idx_sets: np.ndarray,
    idx_indptr: np.ndarray,
    delta_sets: np.ndarray,
    delta_indptr: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge a delta inverted index into an existing one, per node.

    Both operands are node -> RR-set-id CSRs over the same node universe;
    every id in ``delta_sets`` must exceed every id in ``idx_sets`` (the
    delta covers *appended* sets), so per-node concatenation — old entries
    then delta entries — preserves the ascending-id invariant of
    :func:`build_inverted_index`.  Cost is linear in the output: the delta
    was argsorted on its own, the old entries are copied, never re-sorted.
    This is what makes θ-extension of a loaded sketch store (and IMM's
    geometric search generally) cheaper than rebuilding the index from
    scratch at every level.
    """
    old_counts = np.diff(idx_indptr)
    delta_counts = np.diff(delta_indptr)
    merged_indptr = np.zeros_like(idx_indptr)
    np.cumsum(old_counts + delta_counts, out=merged_indptr[1:])
    merged = np.empty(idx_sets.shape[0] + delta_sets.shape[0], dtype=np.int64)
    old_pos = segmented_positions(merged_indptr[:-1], old_counts)
    delta_pos = segmented_positions(
        merged_indptr[:-1] + old_counts, delta_counts
    )
    merged[old_pos] = idx_sets
    merged[delta_pos] = delta_sets
    return merged, merged_indptr


class _SetsView(Sequence[np.ndarray]):
    """Read-only sequence view over a collection's flat member storage."""

    __slots__ = ("_collection",)

    def __init__(self, collection: "RRCollection"):
        self._collection = collection

    def __len__(self) -> int:
        return self._collection.num_sets

    def __getitem__(self, rr_id: int) -> np.ndarray:
        coll = self._collection
        if isinstance(rr_id, slice):
            return [self[i] for i in range(*rr_id.indices(len(self)))]
        if rr_id < 0:
            rr_id += len(self)
        if not 0 <= rr_id < len(self):
            raise IndexError(f"RR set id {rr_id} out of range [0, {len(self)})")
        start = coll._offsets[rr_id]
        end = coll._offsets[rr_id + 1]
        view = coll._members[start:end]
        view.flags.writeable = False
        return view


class RRCollection:
    """A growing collection of RR sets in flat CSR form, with inverted index.

    ``members[offsets[i] : offsets[i+1]]`` are the nodes of RR set ``i``.
    The inverted index maps each node to the ids of RR sets containing it;
    ``cover_counts[u]`` is its length.  Cover counts are maintained
    incrementally (bulk ``bincount`` per generation batch); the index itself
    is rebuilt lazily in bulk on first query after new sets arrive, so
    repeated ``NodeSelection`` calls (IMM's geometric search) pay the rebuild
    only once per sample-size level.

    Parameters
    ----------
    graph, rng, triggering:
        As before: the network, the randomness source, and an optional
        triggering model (``None`` = IC fast path).
    backend:
        ``"sequential"`` (per-set Python BFS, exact historical RNG stream),
        ``"batched"`` (vectorized frontier expansion), or ``None`` to resolve
        from ``$REPRO_RR_BACKEND`` (default batched).  Triggering models
        without a batched sampler fall back to sequential automatically.
    ctx:
        A :class:`repro.engine.EngineContext` supplying rng/backend/
        triggering in one object (the supported spelling since the engine
        refactor).  Mutually exclusive with ``rng``/``backend``; an
        explicit ``triggering`` argument is allowed only when the context
        carries none (two triggering sources are a ``TypeError``).
    """

    def __init__(
        self,
        graph: InfluenceGraph,
        rng: Optional[np.random.Generator] = None,
        triggering: Optional[TriggeringModel] = None,
        backend: Optional[str] = None,
        *,
        ctx=None,
    ):
        if ctx is not None:
            if rng is not None or backend is not None:
                raise TypeError(
                    "RRCollection: pass either ctx= or rng=/backend=, "
                    "not both"
                )
            if triggering is not None and ctx.triggering is not None:
                raise TypeError(
                    "RRCollection: the context already carries a "
                    "triggering model; pass either ctx= or triggering=, "
                    "not both"
                )
            if triggering is None:
                triggering = ctx.triggering
        else:
            # Backend/seed resolution happens in the engine, nowhere else:
            # the legacy (rng, backend) spelling builds an equivalent
            # context and reads the resolved fields back.
            ctx = EngineContext.create(backend=backend, rng=rng)
        if triggering is not None:
            triggering.validate(graph)
        self._graph = graph
        self._rng = ctx.rng
        self._triggering = triggering
        self._backend = ctx.backend
        # Compiled trigger distributions for generic triggering models
        # (built lazily on the first batched generate, then reused).
        self._trigger_csr = None
        n = graph.num_nodes
        self._members = np.empty(1024, dtype=np.int64)
        self._num_members = 0
        self._offsets = np.zeros(1025, dtype=np.int64)
        self._num_sets = 0
        self._cover_counts = np.zeros(n, dtype=np.int64)
        self._total_width = 0  # Σ w(R): nodes visited, for time accounting
        # Inverted index (lazy): RR-set ids grouped by node, CSR over nodes.
        # ``_idx_num_sets`` is the prefix of sets the current index covers;
        # rebuilds past it are incremental (delta argsort + per-node merge).
        self._idx_sets = np.empty(0, dtype=np.int64)
        self._idx_indptr = np.zeros(n + 1, dtype=np.int64)
        self._idx_num_sets = 0
        self._index_dirty = False
        # Epoch-stamped scratch for coverage_fraction: stamp[i] == epoch
        # means "set i covered in the current query" — no per-call allocation.
        self._cov_stamp = np.zeros(1024, dtype=np.int64)
        self._cov_epoch = 0

    @property
    def graph(self) -> InfluenceGraph:
        """The graph RR sets are sampled from."""
        return self._graph

    @property
    def backend(self) -> str:
        """The sampling backend this collection uses."""
        return self._backend

    @property
    def num_sets(self) -> int:
        """Number of RR sets generated so far ``|R|``."""
        return self._num_sets

    @property
    def total_width(self) -> int:
        """Total size of all RR sets (proxy for generation work)."""
        return self._total_width

    @property
    def cover_counts(self) -> np.ndarray:
        """Per-node counts of RR sets containing the node (read-only)."""
        view = self._cover_counts.view()
        view.flags.writeable = False
        return view

    def sets(self) -> Sequence[np.ndarray]:
        """The RR sets themselves (read-only views into the flat storage)."""
        return _SetsView(self)

    def containing(self, node: int) -> np.ndarray:
        """Ids of RR sets containing ``node`` (read-only view)."""
        self._ensure_index()
        start = self._idx_indptr[node]
        end = self._idx_indptr[node + 1]
        view = self._idx_sets[start:end]
        view.flags.writeable = False
        return view

    def flat_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The member/offset CSR over sets, without touching the index.

        Live views — do not mutate.  This is the cheap export hook for
        callers that only need the raw sets (the sharded store builder
        ships these across process boundaries; the merged index is built
        once on the combined arrays instead of once per shard).
        """
        return (
            self._members[: self._num_members],
            self._offsets[: self._num_sets + 1],
        )

    def selection_arrays(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Flat arrays for vectorized NodeSelection.

        Returns ``(members, offsets, idx_sets, idx_indptr)``: the member/
        offset CSR over sets plus the inverted-index CSR over nodes.  All
        four are live views — do not mutate.
        """
        self._ensure_index()
        return (
            self._members[: self._num_members],
            self._offsets[: self._num_sets + 1],
            self._idx_sets,
            self._idx_indptr,
        )

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------
    def generate(self, count: int) -> None:
        """Generate ``count`` additional RR sets with the active backend."""
        if count <= 0:
            return
        batched = is_batched(self._backend) and supports_batched(
            self._triggering
        )
        with obs.span(
            "rrset.generate",
            count=int(count),
            backend="batched" if batched else "sequential",
        ), _PHASE_SECONDS.timer(phase="sampling"):
            if batched:
                if self._trigger_csr is None and needs_trigger_csr(
                    self._triggering
                ):
                    self._trigger_csr = build_trigger_csr(
                        self._graph, self._triggering
                    )
                members, lengths = batch_generate_rr_sets(
                    self._graph,
                    self._rng,
                    count,
                    triggering=self._triggering,
                    trigger_csr=self._trigger_csr,
                )
            else:
                sets = [
                    generate_rr_set(
                        self._graph, self._rng, triggering=self._triggering
                    )
                    for _ in range(count)
                ]
                members = np.concatenate(sets)
                lengths = np.fromiter(
                    (rr.shape[0] for rr in sets), dtype=np.int64, count=count
                )
            self.append_flat(members, lengths)
        _RR_SETS_GENERATED.inc(
            count, backend="batched" if batched else "sequential"
        )

    def add_sets(self, sets: Sequence[Sequence[int]]) -> None:
        """Bulk-insert explicit RR sets (tests and ad-hoc collections).

        Members are de-duplicated (and sorted) per set: an RR set is a set,
        and the index/coverage machinery counts each (set, node) pair once.
        """
        if not len(sets):
            return
        arrays = [np.unique(np.asarray(s, dtype=np.int64)) for s in sets]
        members = (
            np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)
        )
        lengths = np.fromiter(
            (a.shape[0] for a in arrays), dtype=np.int64, count=len(arrays)
        )
        self.append_flat(members, lengths)

    def extend_to(self, target: int) -> None:
        """Generate RR sets until ``num_sets >= target``."""
        missing = int(np.ceil(target)) - self.num_sets
        if missing > 0:
            self.generate(missing)

    def append_flat(self, members: np.ndarray, lengths: np.ndarray) -> None:
        """Append pre-sampled sets given flat members + per-set lengths.

        The hook for samplers the collection does not own (the Com-IC GAP
        sampler); members must be distinct within each set.
        """
        new_members = int(members.shape[0])
        new_sets = int(lengths.shape[0])
        self._reserve(new_members, new_sets)
        self._members[
            self._num_members : self._num_members + new_members
        ] = members
        base = self._offsets[self._num_sets]
        self._offsets[
            self._num_sets + 1 : self._num_sets + 1 + new_sets
        ] = base + np.cumsum(lengths)
        self._num_members += new_members
        self._num_sets += new_sets
        self._total_width += new_members
        if new_members:
            self._cover_counts += np.bincount(
                members, minlength=self._graph.num_nodes
            )
        self._index_dirty = True

    def _reserve(self, extra_members: int, extra_sets: int) -> None:
        need_m = self._num_members + extra_members
        if need_m > self._members.shape[0]:
            cap = max(need_m, 2 * self._members.shape[0])
            grown = np.empty(cap, dtype=np.int64)
            grown[: self._num_members] = self._members[: self._num_members]
            self._members = grown
        need_s = self._num_sets + 1 + extra_sets
        if need_s > self._offsets.shape[0]:
            cap = max(need_s, 2 * self._offsets.shape[0])
            grown = np.zeros(cap, dtype=np.int64)
            grown[: self._num_sets + 1] = self._offsets[: self._num_sets + 1]
            self._offsets = grown
        if need_s > self._cov_stamp.shape[0]:
            cap = max(need_s, 2 * self._cov_stamp.shape[0])
            grown = np.zeros(cap, dtype=np.int64)
            grown[: self._cov_stamp.shape[0]] = self._cov_stamp
            self._cov_stamp = grown

    def _ensure_index(self) -> None:
        """Bring the inverted index up to date if new sets arrived.

        First build is a full bulk pass; subsequent growth (IMM's geometric
        levels, θ-extension of a loaded store) argsorts only the appended
        members and merges them per node, so the amortized cost stays
        linear in the *new* width instead of the total.
        """
        if not self._index_dirty:
            return
        if self._idx_num_sets == 0 or self._idx_num_sets > self._num_sets:
            self._idx_sets, self._idx_indptr = build_inverted_index(
                self._members[: self._num_members],
                self._offsets[: self._num_sets + 1],
                self._graph.num_nodes,
            )
        else:
            base = self._offsets[self._idx_num_sets]
            delta_members = self._members[base : self._num_members]
            delta_offsets = (
                self._offsets[self._idx_num_sets : self._num_sets + 1] - base
            )
            delta_sets, delta_indptr = build_inverted_index(
                delta_members, delta_offsets, self._graph.num_nodes
            )
            delta_sets += self._idx_num_sets
            self._idx_sets, self._idx_indptr = merge_inverted_index(
                self._idx_sets, self._idx_indptr, delta_sets, delta_indptr
            )
        self._idx_num_sets = self._num_sets
        self._index_dirty = False

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def coverage_fraction(self, seeds: Sequence[int]) -> float:
        """``F_R(S)``: fraction of RR sets intersecting ``seeds``.

        Uses an epoch-stamped scratch array instead of allocating a fresh
        boolean mask per call — PRIMA's geometric search calls this in a
        tight loop on budget switches.
        """
        if self.num_sets == 0:
            return 0.0
        self._ensure_index()
        self._cov_epoch += 1
        epoch = self._cov_epoch
        stamp = self._cov_stamp
        covered = 0
        for s in seeds:
            ids = self.containing(int(s))
            newly = ids[stamp[ids] != epoch]
            stamp[newly] = epoch
            covered += int(newly.shape[0])
        return covered / self.num_sets

    def reset(self) -> None:
        """Drop all RR sets (used by the regenerate-from-scratch fix)."""
        self._num_members = 0
        self._num_sets = 0
        self._offsets[:1] = 0
        self._cover_counts[:] = 0
        self._total_width = 0
        self._idx_sets = np.empty(0, dtype=np.int64)
        self._idx_indptr = np.zeros(self._graph.num_nodes + 1, dtype=np.int64)
        self._idx_num_sets = 0
        self._index_dirty = False

    # ------------------------------------------------------------------
    # Flat-state export / import (the persistence hooks of repro.store)
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Snapshot the collection as plain arrays for persistence.

        Returns copies (safe to hold across further growth) of the member/
        offset CSR, the per-node cover counts, and the inverted index
        (brought up to date first).  The RNG bit-generator state rides along
        so a restored collection continues the exact sampling stream —
        byte-identical θ-extension after a save/load round trip.
        """
        self._ensure_index()
        return {
            "members": self._members[: self._num_members].copy(),
            "offsets": self._offsets[: self._num_sets + 1].copy(),
            "cover_counts": self._cover_counts.copy(),
            "idx_sets": self._idx_sets.copy(),
            "idx_indptr": self._idx_indptr.copy(),
            "total_width": int(self._total_width),
            "rng_state": self._rng.bit_generator.state,
        }

    @classmethod
    def from_flat(
        cls,
        graph: InfluenceGraph,
        rng: Optional[np.random.Generator],
        members: np.ndarray,
        offsets: np.ndarray,
        *,
        index: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        triggering: Optional[TriggeringModel] = None,
        # repro-lint: disable=RL002 forwarded verbatim into cls()'s resolution
        backend: Optional[str] = None,
        ctx=None,
    ) -> "RRCollection":
        """Rebuild a collection from flat CSR arrays without regeneration.

        ``members``/``offsets`` follow the layout of
        :meth:`selection_arrays`; ``index`` optionally supplies a matching
        ``(idx_sets, idx_indptr)`` inverted index (e.g. from a loaded
        sketch store), in which case later growth updates it incrementally
        instead of rebuilding.  Read-only inputs (memory-mapped store
        arrays) are copied into writable growth buffers.
        """
        collection = cls(
            graph, rng, triggering=triggering, backend=backend, ctx=ctx
        )
        members = np.asarray(members, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.shape[0] < 1 or offsets[0] != 0:
            raise ValueError("offsets must start at 0")
        if members.shape[0] != int(offsets[-1]):
            raise ValueError(
                f"members length {members.shape[0]} does not match "
                f"offsets[-1] == {int(offsets[-1])}"
            )
        lengths = np.diff(offsets)
        collection.append_flat(members, lengths)
        if index is not None:
            idx_sets, idx_indptr = index
            collection._idx_sets = np.asarray(idx_sets, dtype=np.int64).copy()
            collection._idx_indptr = np.asarray(
                idx_indptr, dtype=np.int64
            ).copy()
            collection._idx_num_sets = collection._num_sets
            collection._index_dirty = False
        return collection

    @property
    def rng(self) -> np.random.Generator:
        """The collection's randomness source (for state persistence)."""
        return self._rng
