"""Batched RR-set sampling: many reverse BFS walks per numpy call.

The sequential sampler (:func:`repro.rrset.rrgen.generate_rr_set`) visits one
node at a time, paying Python-interpreter overhead per node and per edge.
This module runs ``B`` reverse BFS walks *concurrently* by keeping the union
of all frontiers as flat ``(walk_id, node)`` arrays and expanding every
frontier in one vectorized step over the graph's reverse-CSR arrays:

1. **Gather** — for the flat frontier ``(w, v)`` pairs, look up each node's
   in-edge slice ``indptr[v] : indptr[v+1]`` and materialize all candidate
   edges at once with ``np.repeat`` over the per-node degrees (the standard
   "segmented gather": ``pos = repeat(starts - excl_cumsum, degs) +
   arange(total)``).
2. **Coin flips** — under IC, one uniform per candidate edge compared against
   the edge probability; under LT, one uniform per *frontier node* compared
   against the segmented cumulative in-weights, which selects at most one
   in-neighbor per node exactly as the sequential trigger-set sampler does.
3. **Dedup** — surviving pairs become walk-major keys ``walk * n + node``,
   are filtered against the chunk's visited keys and de-duplicated within
   the step by a sort (:func:`~repro.diffusion.triggering.distinct_sorted`);
   the survivors form the next frontier.

The visited set is not a dense ``(walks × n)`` bitmap but a few sorted
*runs* of keys: each step's fresh keys become a new run, membership is one
``np.searchsorted`` per run, and while the second-to-last run is at most
twice the size of the last the two are merged (a stable sort, which
timsort does in one linear merge of the two runs).  Run sizes thus
fall geometrically, so a chunk keeps O(log) runs and does O(members · log)
work however deep its cascades go.  When the frontiers die out the merged
keys are ordered by (walk, node), which *is* the flat CSR layout
:class:`repro.rrset.rrgen.RRCollection` stores: members ascend by node id
within each set and the per-walk lengths are a ``bincount`` of the walk ids.

Memory is bounded by chunking without a knob: a chunk holds at most
``_WALK_CAP`` walks and is sized so its keys fit ``_KEY_BUDGET``.  The first
chunk assumes every walk could reach all ``n`` nodes; later chunks use the
members per walk this call has seen so far.  Chunk sizes depend only on the
call's graph, count and draws, so a call is a pure function of its
arguments and RNG state.

Two extensions serve the TIM-based algorithms:

* :func:`rr_set_widths` computes every set's width ``w(R)`` (total in-degree
  of its members) in one vectorized pass over the flat output, which is what
  lets the KPT-estimation phases of TIM and the Com-IC baselines consume
  whole geometric rounds ``c_i`` as single batched calls.
* :func:`batch_generate_gap_rr_sets` is the GAP-aware variant used by
  RR-SIM+/RR-CIM: on top of the IC edge coins, every discovered node passes
  a node-level adoption coin whose probability is ``q_boosted`` when the
  node adopts the complementary item in the forward world paired with the
  walk (a per-world boolean bitmap row selected by ``world_ids``) and
  ``q_plain`` otherwise.  A failed *root* coin yields an empty RR set.  The
  coin is one optional step of the same kernel.

Generic :class:`~repro.diffusion.triggering.TriggeringModel` instances beyond
IC/LT are vectorized too, provided they expose an explicit per-node
``trigger_distribution`` (see :class:`TriggerCSR`): the distribution is
compiled once into flat candidate/member CSR arrays, and each (walk, node)
query selects one candidate with a single ``np.searchsorted`` over a
segment-shifted cumulative-probability array — the segmented-cumsum
generalization of the LT branch.  Models without a distribution still fall
back to the sequential path (``supports_batched`` tells callers which is
which).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.engine.context import BACKEND_ENV, BACKENDS, resolve_backend
from repro.diffusion.triggering import (
    IndependentCascadeTriggering,
    LinearThresholdTriggering,
    TriggerCSR,
    TriggeringModel,
    build_trigger_csr,
    distinct_sorted,
    has_trigger_distribution,
    needs_trigger_csr,
    sample_trigger_members,
    segmented_positions,
)
from repro.graph.digraph import InfluenceGraph

__all__ = [
    "BACKEND_ENV",
    "BACKENDS",
    "TriggerCSR",
    "batch_generate_gap_rr_sets",
    "batch_generate_rr_sets",
    "build_trigger_csr",
    "resolve_backend",
    "rr_set_widths",
    "sample_trigger_members",
    "supports_batched",
]

# BACKEND_ENV / BACKENDS / resolve_backend live in repro.engine.context
# since the EngineContext refactor; re-exported here for compatibility.

#: Most walks one chunk runs at once.
_WALK_CAP = 1 << 14
#: Visited keys one chunk is sized to hold (int64: 32 MiB).
_KEY_BUDGET = 1 << 22


def supports_batched(triggering: Optional[TriggeringModel]) -> bool:
    """Whether the batched sampler covers this triggering model.

    ``None`` (the IC fast path), :class:`IndependentCascadeTriggering` and
    :class:`LinearThresholdTriggering` have dedicated vectorized branches;
    any other model is vectorized through the generic trigger-CSR sampler
    as soon as it overrides
    :meth:`~repro.diffusion.triggering.TriggeringModel.trigger_distribution`.
    Only models without an explicit distribution need the sequential
    fallback.
    """
    if triggering is None or isinstance(
        triggering, (IndependentCascadeTriggering, LinearThresholdTriggering)
    ):
        return True
    return has_trigger_distribution(triggering)


def rr_set_widths(
    graph: InfluenceGraph, members: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Per-set widths ``w(R)`` — total in-degree of each set's members.

    ``(members, lengths)`` is the flat output of a batched sampler (or any
    CSR-over-sets layout).  Equivalent to
    ``np.add.reduceat(in_degree[members], offsets[:-1])`` but computed as
    differences of a cumulative sum, which stays correct for empty sets
    (``reduceat`` returns the *next* element on an empty segment instead of
    zero — GAP-aware sets are empty whenever the root adoption coin fails).
    """
    in_degree = np.diff(graph._in_indptr)
    cum = np.concatenate(
        ([0], np.cumsum(in_degree[members], dtype=np.int64))
    )
    offsets = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
    return cum[offsets[1:]] - cum[offsets[:-1]]


def batch_generate_rr_sets(
    graph: InfluenceGraph,
    rng: np.random.Generator,
    count: int,
    triggering: Optional[TriggeringModel] = None,
    trigger_csr: Optional[TriggerCSR] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample ``count`` RR sets with vectorized frontier expansion.

    Returns ``(members, lengths)`` where ``members`` is the int64
    concatenation of all RR sets in generation order and ``lengths[i]`` is
    the size of RR set ``i`` (``members.size == lengths.sum()``; every set
    includes its root, so lengths are >= 1).  Members ascend by node id
    within each set.

    Generic triggering models are sampled through their compiled
    :class:`TriggerCSR`; pass ``trigger_csr`` to reuse a cached compilation
    (otherwise it is rebuilt here, one Python pass over the nodes).
    """
    if not supports_batched(triggering):
        raise ValueError(
            f"triggering model {triggering!r} has no batched sampler; "
            "use the sequential backend"
        )
    if trigger_csr is None and needs_trigger_csr(triggering):
        trigger_csr = build_trigger_csr(graph, triggering)
    lt = isinstance(triggering, LinearThresholdTriggering)
    return _sample_chunks(graph, rng, count, lt, trigger_csr)


def batch_generate_gap_rr_sets(
    graph: InfluenceGraph,
    rng: np.random.Generator,
    count: int,
    q_plain: float,
    q_boosted: float,
    boosted: np.ndarray,
    world_ids: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample ``count`` GAP-aware RR sets (Com-IC RIS) in batched form.

    ``boosted`` is a ``(num_worlds, n)`` boolean bitmap — row ``w`` marks
    the nodes adopting the complementary item in forward world ``w`` — and
    ``world_ids[j]`` is the world paired with walk ``j`` (the caller owns
    the pairing convention, including any cross-phase cursor).  Every
    discovered node must pass a node-level adoption coin with probability
    ``q_boosted`` if boosted in the walk's world, else ``q_plain``; a failed
    *root* coin yields an empty RR set (``lengths[j] == 0``), mirroring the
    "root must be willing to adopt" condition of the analysis.

    The coin is flipped once per *discovery attempt* (live edge into a
    not-yet-visited node), not once per node: a node that fails its coin
    stays unvisited and may be retried by later live edges.  This matches
    the sequential sampler (:func:`repro.baselines._comic_common._gap_rr_set`)
    exactly — both give a per-step inclusion probability of
    ``1 - (1 - q)^d`` for ``d`` live edges — so the two backends sample the
    same distribution.

    Returns ``(members, lengths)`` in the same flat layout as
    :func:`batch_generate_rr_sets`, except lengths may be zero.
    """
    n = graph.num_nodes
    boosted = np.asarray(boosted, dtype=bool)
    if boosted.ndim != 2 or boosted.shape[1] != n:
        raise ValueError(
            f"boosted bitmap must be (num_worlds, {n}), got {boosted.shape}"
        )
    world_ids = np.asarray(world_ids, dtype=np.int64)
    if world_ids.shape[0] != count:
        raise ValueError(
            f"need one world id per walk: {world_ids.shape[0]} != {count}"
        )
    gap = (q_plain, q_boosted, boosted, world_ids)
    return _sample_chunks(graph, rng, count, False, None, gap)


def _sample_chunks(
    graph: InfluenceGraph,
    rng: np.random.Generator,
    count: int,
    lt: bool,
    trigger_csr: Optional[TriggerCSR],
    gap: Optional[tuple] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Stream ``count`` walks through :func:`_sample_chunk` in sized chunks."""
    n = graph.num_nodes
    if n == 0:
        raise ValueError("cannot sample an RR set from an empty graph")
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    member_parts = [np.empty(0, dtype=np.int64)]
    length_parts = [np.empty(0, dtype=np.int64)]
    done = members_done = 0
    while done < count:
        if members_done:
            batch = min(_WALK_CAP, _KEY_BUDGET * done // members_done)
        else:
            batch = min(_WALK_CAP, _KEY_BUDGET // n)
        batch = max(1, min(batch, count - done))
        chunk_gap = None
        if gap is not None:
            q_plain, q_boosted, boosted, world_ids = gap
            chunk_gap = (
                q_plain, q_boosted, boosted, world_ids[done : done + batch]
            )
        nodes, lengths = _sample_chunk(
            graph, rng, batch, lt, trigger_csr, chunk_gap
        )
        member_parts.append(nodes)
        length_parts.append(lengths)
        done += batch
        members_done += nodes.shape[0]
    return np.concatenate(member_parts), np.concatenate(length_parts)


def _adoption_coins(
    rng: np.random.Generator, gap: tuple, w: np.ndarray, s: np.ndarray
) -> np.ndarray:
    """One GAP adoption coin per ``(walk, node)`` discovery attempt."""
    q_plain, q_boosted, boosted, world_ids = gap
    q = np.where(boosted[world_ids[w], s], q_boosted, q_plain)
    return rng.random(w.size) < q


def _in_runs(runs: List[np.ndarray], keys: np.ndarray) -> np.ndarray:
    """Which ``keys`` occur in any of the sorted, non-empty ``runs``."""
    hit = np.zeros(keys.shape[0], dtype=bool)
    for run in runs:
        pos = np.searchsorted(run, keys)
        np.minimum(pos, run.shape[0] - 1, out=pos)
        hit |= run[pos] == keys
    return hit


def _sample_chunk(
    graph: InfluenceGraph,
    rng: np.random.Generator,
    batch: int,
    lt: bool,
    trigger_csr: Optional[TriggerCSR],
    gap: Optional[tuple],
) -> Tuple[np.ndarray, np.ndarray]:
    """Run ``batch`` concurrent reverse BFS walks; see the module docstring.

    Returns ``(members, lengths)`` with each walk's members ascending by
    node id.  With ``trigger_csr`` given, each frontier node's live in-edges
    come from one vectorized trigger-distribution query instead of IC/LT
    coins; with ``gap`` given, every discovery attempt (and the root) also
    passes the GAP adoption coin.
    """
    n = graph.num_nodes

    roots = rng.integers(0, n, size=batch).astype(np.int64)
    frontier_w = np.arange(batch, dtype=np.int64)
    if gap is not None:
        alive = _adoption_coins(rng, gap, frontier_w, roots)
        frontier_w = frontier_w[alive]
        roots = roots[alive]
    frontier_n = roots
    runs = [frontier_w * n + frontier_n]

    while frontier_w.size:
        if trigger_csr is not None:
            src, degs = sample_trigger_members(
                trigger_csr, frontier_n, rng.random(frontier_n.size)
            )
            keys = np.repeat(frontier_w, degs) * n + src
        else:
            # Segmented gather of every candidate in-edge of the frontier.
            starts = graph._in_indptr[frontier_n]
            degs = graph._in_indptr[frontier_n + 1] - starts
            total = int(degs.sum())
            if total == 0:
                break
            pos = segmented_positions(starts, degs)
            src, prob = graph._in_sources[pos], graph._in_probs[pos]
            if lt:
                # One uniform per frontier node selects at most one
                # in-neighbor: edge j of node v is live iff
                # cum_{<j} <= draw < cum_{<=j}, the live-edge
                # characterization of LT.
                cum = np.cumsum(prob)
                # Segment starts; zero-degree segments have excl == total,
                # so clip before indexing (np.repeat with 0 repeats drops
                # their entries regardless).
                excl = np.cumsum(degs) - degs
                safe = np.minimum(excl, total - 1)
                seg_cum = cum - np.repeat(cum[safe] - prob[safe], degs)
                draw = np.repeat(rng.random(frontier_n.size), degs)
                live = (draw < seg_cum) & (draw >= seg_cum - prob)
            else:
                live = rng.random(total) < prob
            keys = np.repeat(frontier_w, degs)[live] * n + src[live]
        if gap is None:
            # Dedup (walk, node) pairs discovered twice within this step;
            # sorted needles make the membership searches cache-friendly.
            keys = distinct_sorted(keys)
            keys = keys[~_in_runs(runs, keys)]
        else:
            # One adoption coin per discovery attempt, so dedupe after it.
            keys = keys[~_in_runs(runs, keys)]
            w = keys // n
            keys = distinct_sorted(
                keys[_adoption_coins(rng, gap, w, keys - w * n)]
            )
        if keys.size == 0:
            break
        frontier_w = keys // n
        frontier_n = keys - frontier_w * n
        runs.append(keys)
        while len(runs) > 1 and runs[-2].shape[0] <= 2 * runs[-1].shape[0]:
            last = runs.pop()
            merged = np.concatenate((runs[-1], last))
            # Timsort finds the two sorted runs and merges them in one pass.
            merged.sort(kind="stable")
            runs[-1] = merged

    keys = np.concatenate(runs)
    keys.sort(kind="stable")
    walks = keys // n
    return keys - walks * n, np.bincount(walks, minlength=batch)
