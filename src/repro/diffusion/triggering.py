"""General triggering models (Kempe et al. [30]).

The paper notes (§5) that "our results and techniques carry over unchanged to
any triggering propagation model".  A triggering model assigns every node a
random *trigger set* — a subset of its in-neighbors — and ``v`` activates
when any member of its trigger set is active.  Sampling all trigger sets up
front yields a live-edge world, so the whole UIC/RIS stack runs unchanged on
top of any triggering model:

* **IC**: each in-neighbor joins the trigger set independently with the edge
  probability;
* **LT** (linear threshold): at most one in-neighbor is chosen, with
  probability equal to the edge weight (requires in-weights summing to ≤ 1 —
  satisfied by the weighted-cascade scheme, where they sum to exactly 1).

:func:`sample_triggering_world` materializes one live-edge world;
RR-set generation under a triggering model uses the same per-node trigger
sampling during the reverse BFS (see :mod:`repro.rrset.rrgen`).

Models beyond IC/LT plug into the *vectorized* batched samplers (reverse
RR-set generation in :mod:`repro.rrset.batch`, forward world simulation in
:mod:`repro.diffusion.batch_forward`) by exposing an explicit per-node
**trigger distribution** — a short list of ``(probability, sources)``
candidates whose probabilities sum to at most 1 (the remainder is the empty
trigger set).  The batched engines compile these into a flat "trigger CSR"
and select one candidate per (walk, node) query with a single segmented
cumulative-sum search, so any model with tractable per-node distributions
runs vectorized.  :class:`DistributionTriggering` derives the sequential
``sample_trigger_set`` from the same distribution, guaranteeing the two
backends sample identically-distributed trigger sets.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.diffusion.worlds import LiveEdgeGraph
from repro.graph.digraph import InfluenceGraph

#: One candidate of an explicit trigger distribution: its probability and the
#: in-neighbor ids forming the trigger set.
TriggerCandidate = Tuple[float, np.ndarray]


class TriggeringModel(abc.ABC):
    """Distribution over trigger sets, per node."""

    @abc.abstractmethod
    def sample_trigger_set(
        self, graph: InfluenceGraph, node: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample the trigger set of ``node`` (array of in-neighbor ids)."""

    def trigger_distribution(
        self, graph: InfluenceGraph, node: int
    ) -> Optional[Sequence[TriggerCandidate]]:
        """Explicit distribution over ``node``'s trigger sets, if tractable.

        Return ``(probability, sources)`` candidates summing to at most 1;
        the leftover mass is the empty trigger set.  Overriding this unlocks
        the vectorized batched samplers
        (:func:`repro.rrset.batch.supports_batched` reports the capability);
        the default ``None`` keeps the model on the sequential fallback.
        Candidate order is part of the contract: the batched sampler draws
        one uniform per query and picks the first candidate whose cumulative
        probability exceeds it, exactly like
        :meth:`DistributionTriggering.sample_trigger_set`.
        """
        return None

    def validate(self, graph: InfluenceGraph) -> None:
        """Check model-specific preconditions on the graph (optional)."""


class IndependentCascadeTriggering(TriggeringModel):
    """IC as a triggering model: independent per-edge coins."""

    def sample_trigger_set(
        self, graph: InfluenceGraph, node: int, rng: np.random.Generator
    ) -> np.ndarray:
        sources = graph.in_neighbors(node)
        if sources.shape[0] == 0:
            return sources
        probs = graph.in_probabilities(node)
        keep = rng.random(sources.shape[0]) < probs
        return sources[keep]


class LinearThresholdTriggering(TriggeringModel):
    """LT as a triggering model: at most one in-neighbor, by edge weight.

    The live-edge characterization of LT [30]: node ``v`` picks in-neighbor
    ``u`` with probability ``w(u, v)`` and nobody with probability
    ``1 − Σ_u w(u, v)``.  Requires each node's in-weights to sum to at most 1
    (``validate`` enforces it); the weighted-cascade scheme gives exactly 1.
    """

    def validate(self, graph: InfluenceGraph) -> None:
        for v in range(graph.num_nodes):
            total = float(graph.in_probabilities(v).sum())
            if total > 1.0 + 1e-9:
                raise ValueError(
                    f"LT requires in-weights summing to <= 1; node {v} "
                    f"has total {total:.4f}"
                )

    def sample_trigger_set(
        self, graph: InfluenceGraph, node: int, rng: np.random.Generator
    ) -> np.ndarray:
        sources = graph.in_neighbors(node)
        if sources.shape[0] == 0:
            return sources
        weights = graph.in_probabilities(node)
        draw = rng.random()
        cumulative = 0.0
        for idx in range(sources.shape[0]):
            cumulative += weights[idx]
            if draw < cumulative:
                return sources[idx : idx + 1]
        return sources[:0]  # empty trigger set

    def trigger_distribution(
        self, graph: InfluenceGraph, node: int
    ) -> Sequence[TriggerCandidate]:
        """LT's distribution is linear in the in-degree: one singleton
        candidate per in-edge, weighted by the edge weight."""
        sources = graph.in_neighbors(node)
        weights = graph.in_probabilities(node)
        return [
            (float(weights[idx]), sources[idx : idx + 1])
            for idx in range(sources.shape[0])
        ]


class DistributionTriggering(TriggeringModel):
    """Base class for models defined by an explicit trigger distribution.

    Subclasses implement only :meth:`trigger_distribution`; the sequential
    :meth:`sample_trigger_set` is derived from it (draw one uniform, walk the
    cumulative candidate probabilities), which is byte-for-byte the selection
    rule the vectorized trigger-CSR sampler applies — so the sequential and
    batched backends sample the same per-node distribution by construction.
    """

    @abc.abstractmethod
    def trigger_distribution(
        self, graph: InfluenceGraph, node: int
    ) -> Sequence[TriggerCandidate]:
        """Explicit distribution over ``node``'s trigger sets (required)."""

    def sample_trigger_set(
        self, graph: InfluenceGraph, node: int, rng: np.random.Generator
    ) -> np.ndarray:
        draw = rng.random()
        cumulative = 0.0
        for probability, sources in self.trigger_distribution(graph, node):
            cumulative += probability
            if draw < cumulative:
                return np.asarray(sources, dtype=np.int64)
        return graph.in_neighbors(node)[:0]  # empty trigger set


class AttentionICTriggering(DistributionTriggering):
    """Attention-limited IC: independent coins on the top-``k`` in-edges.

    Each node only attends to its ``max_attention`` highest-probability
    in-edges (ties to the lower source id, matching CSR order); those edges
    flip independent IC coins and the rest never fire.  This is a genuine
    triggering model beyond IC/LT — its trigger distribution enumerates the
    ``2^k`` subsets of the attended edges, which stays tractable for the
    small attention windows the model is about (``max_attention <= 10``).
    """

    def __init__(self, max_attention: int = 3):
        if not 1 <= max_attention <= 10:
            raise ValueError(
                f"max_attention must be in [1, 10], got {max_attention}"
            )
        self.max_attention = int(max_attention)

    def trigger_distribution(
        self, graph: InfluenceGraph, node: int
    ) -> Sequence[TriggerCandidate]:
        sources = graph.in_neighbors(node)
        probs = graph.in_probabilities(node)
        if sources.shape[0] > self.max_attention:
            # Highest probability first; ties to the lower source id.
            order = np.lexsort((sources, -probs))[: self.max_attention]
            order.sort()  # keep CSR order within the attended window
            sources = sources[order]
            probs = probs[order]
        k = sources.shape[0]
        candidates: List[TriggerCandidate] = []
        for mask in range(1 << k):
            probability = 1.0
            for idx in range(k):
                p = float(probs[idx])
                probability *= p if mask >> idx & 1 else 1.0 - p
            members = sources[[idx for idx in range(k) if mask >> idx & 1]]
            candidates.append((probability, members))
        return candidates


def sample_triggering_world(
    graph: InfluenceGraph,
    model: TriggeringModel,
    rng: np.random.Generator,
) -> LiveEdgeGraph:
    """Sample all trigger sets, returning the induced live-edge world.

    Edge ``(u, v)`` is live iff ``u`` is in ``v``'s sampled trigger set; the
    resulting :class:`LiveEdgeGraph` plugs directly into
    :func:`repro.diffusion.uic.simulate_uic`.
    """
    n = graph.num_nodes
    out_lists: List[List[int]] = [[] for _ in range(n)]
    for v in range(n):
        for u in model.sample_trigger_set(graph, v, rng):
            out_lists[int(u)].append(v)
    return LiveEdgeGraph(
        n, [np.array(lst, dtype=np.int64) for lst in out_lists]
    )


@dataclass(frozen=True)
class TriggerCSR:
    """A triggering model's per-node distributions, compiled flat.

    Node ``v``'s candidates occupy ``cand_indptr[v] : cand_indptr[v+1]``;
    ``shifted_cum[c]`` is candidate ``c``'s inclusive within-node cumulative
    probability plus ``v`` itself, which makes the array globally
    non-decreasing (segment ``v`` lives in ``(v, v+1]``).  A query ``(v,
    draw)`` with ``draw ~ U[0,1)`` therefore resolves to
    ``np.searchsorted(shifted_cum, v + draw, side="right")`` — the first
    candidate whose cumulative probability strictly exceeds the draw, i.e.
    exactly the sequential selection rule of
    :class:`DistributionTriggering` — with the sentinel ``cand_indptr[v+1]``
    meaning "empty trigger set" (leftover probability mass).
    ``member_indptr``/``member_sources`` are the CSR of each candidate's
    trigger-set members.

    Consumed by the vectorized samplers on both sides of the engine: the
    reverse RR-set generator (:mod:`repro.rrset.batch`) and the forward
    world simulator (:mod:`repro.diffusion.batch_forward`).
    """

    cand_indptr: np.ndarray
    shifted_cum: np.ndarray
    member_indptr: np.ndarray
    member_sources: np.ndarray


def build_trigger_csr(
    graph: InfluenceGraph, triggering: TriggeringModel
) -> TriggerCSR:
    """Compile a model's explicit trigger distributions into flat arrays.

    One Python pass over the nodes at build time; every subsequent sampling
    round is pure numpy.  Callers cache the result per (graph, model) pair
    (:class:`repro.rrset.rrgen.RRCollection` does).
    """
    n = graph.num_nodes
    cand_counts = np.zeros(n, dtype=np.int64)
    cum_parts: List[float] = []
    member_len_parts: List[int] = []
    member_parts: List[np.ndarray] = []
    for v in range(n):
        distribution = triggering.trigger_distribution(graph, v)
        if distribution is None:
            raise ValueError(
                f"triggering model {triggering!r} exposes no trigger "
                "distribution; use the sequential sampler"
            )
        cumulative = 0.0
        for probability, sources in distribution:
            probability = float(probability)
            if probability < 0.0:
                raise ValueError(
                    f"node {v}: negative candidate probability {probability}"
                )
            cumulative += probability
            cum_parts.append(cumulative)
            members = np.asarray(sources, dtype=np.int64)
            member_len_parts.append(members.shape[0])
            member_parts.append(members)
        if cumulative > 1.0 + 1e-9:
            raise ValueError(
                f"node {v}: candidate probabilities sum to {cumulative:.6f} "
                "> 1"
            )
        cand_counts[v] = len(distribution)
    cand_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(cand_counts, out=cand_indptr[1:])
    total_cands = int(cand_indptr[-1])
    shifted = np.asarray(cum_parts, dtype=np.float64)
    # Clip accumulated float drift so each segment stays within (v, v+1].
    np.minimum(shifted, 1.0, out=shifted)
    shifted += np.repeat(np.arange(n, dtype=np.float64), cand_counts)
    member_indptr = np.zeros(total_cands + 1, dtype=np.int64)
    np.cumsum(
        np.asarray(member_len_parts, dtype=np.int64), out=member_indptr[1:]
    )
    member_sources = (
        np.concatenate(member_parts)
        if member_parts
        else np.empty(0, dtype=np.int64)
    )
    return TriggerCSR(cand_indptr, shifted, member_indptr, member_sources)


def has_trigger_distribution(triggering: TriggeringModel) -> bool:
    """Whether a model exposes an explicit per-node trigger distribution.

    The single capability check behind the vectorized samplers: a model
    that overrides :meth:`TriggeringModel.trigger_distribution` can be
    compiled into a :class:`TriggerCSR` on both engine sides (reverse
    RR-set generation and forward world simulation).
    """
    return (
        type(triggering).trigger_distribution
        is not TriggeringModel.trigger_distribution
    )


def needs_trigger_csr(triggering: Optional[TriggeringModel]) -> bool:
    """Whether the batched samplers route this model through a TriggerCSR.

    ``None`` and IC have dedicated per-edge-coin fast paths; LT keeps its
    specialized segmented-cumsum branch on the reverse side and its linear
    distribution on the forward side, but any *other* distribution-bearing
    model samples through the compiled CSR.
    """
    return triggering is not None and not isinstance(
        triggering, (IndependentCascadeTriggering, LinearThresholdTriggering)
    )


def segmented_positions(starts: np.ndarray, degs: np.ndarray) -> np.ndarray:
    """Flat gather indices ``[starts[i], starts[i] + degs[i])``, concatenated.

    The standard segmented-gather idiom (``repeat`` of the start offsets
    corrected by the exclusive cumsum) shared by every batched frontier
    expansion — reverse in-edge gathers, forward out-edge gathers, and
    trigger-CSR member lookups.
    """
    total = int(degs.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    excl = np.cumsum(degs) - degs
    return np.repeat(starts - excl, degs) + np.arange(total)


def distinct_sorted(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` by one sort and an adjacent-difference mask.

    NumPy 2's ``np.unique`` hashes integer input, an order of magnitude
    slower on the batched frontiers' flat ``walk * n + node`` keys.
    """
    keys = np.sort(keys)
    keep = np.ones(keys.shape[0], dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def sample_trigger_members(
    csr: TriggerCSR,
    nodes: np.ndarray,
    draws: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Resolve one trigger-set query per ``(nodes[i], draws[i])`` pair.

    Returns ``(members, degs)``: the concatenated trigger-set members of
    every query in order, plus each query's member count (0 when the draw
    lands in the leftover empty-set mass).  This is the shared vectorized
    core of the generic-triggering RR-set sampler and the forward world
    sampler in :mod:`repro.diffusion.batch_forward`.
    """
    if csr.member_indptr.shape[0] == 1:
        # No candidates anywhere (every node's mass is the empty trigger
        # set): every query resolves empty.
        return (
            np.empty(0, dtype=np.int64),
            np.zeros(nodes.shape[0], dtype=np.int64),
        )
    picks = np.searchsorted(csr.shifted_cum, nodes + draws, side="right")
    empty = picks >= csr.cand_indptr[nodes + 1]
    safe = np.where(empty, 0, picks)
    starts = csr.member_indptr[safe]
    degs = np.where(empty, 0, csr.member_indptr[safe + 1] - starts)
    pos = segmented_positions(starts, degs)
    if pos.shape[0] == 0:
        return np.empty(0, dtype=np.int64), degs
    return csr.member_sources[pos], degs


def resolve_triggering(name_or_model) -> TriggeringModel:
    """Resolve ``"ic"`` / ``"lt"`` / a TriggeringModel instance."""
    if isinstance(name_or_model, TriggeringModel):
        return name_or_model
    if name_or_model == "ic":
        return IndependentCascadeTriggering()
    if name_or_model == "lt":
        return LinearThresholdTriggering()
    raise ValueError(
        f"unknown triggering model {name_or_model!r}; expected 'ic', 'lt' "
        "or a TriggeringModel instance"
    )
