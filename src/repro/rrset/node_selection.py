"""Greedy max-k-coverage over RR sets (``NodeSelection`` of IMM).

Given a collection ``R`` of RR sets and a budget ``k``, repeatedly pick the
node covering the most not-yet-covered RR sets.  Returns the *ordered* seed
list — the order matters for the prefix-preserving property PRIMA provides —
and the covered fraction ``F_R(S)``.

Tie-break contract
------------------
The procedure is deterministic given the collection: at every round the
winner is the node with the **largest residual gain**, ties broken by the
**smallest node id** (``np.argmax`` returns the first maximum).  This exact
contract is what lets PRIMA reuse seed prefixes across budgets.  The
per-round gain update gathers the member slices of all newly covered RR
sets in one segmented ``np.repeat`` gather and applies them with a single
``bincount`` subtraction; gain updates are exact integer arithmetic, so the
result is bit-for-bit that of the per-element reference loop the tests pin
against.

:func:`node_selection` runs over an :class:`RRCollection` (PRIMA, IMM and
the Com-IC sketches); :func:`greedy_max_coverage` is the same loop over raw
flat arrays.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro import obs
from repro.rrset.rrgen import RRCollection, build_inverted_index

_SELECTION_SECONDS = obs.histogram(
    "repro_engine_phase_seconds",
    "Wall-clock of engine phases (sampling, selection, kpt, forward)",
    labels=("phase",),
)


def _greedy_rounds(
    num_nodes: int,
    members: np.ndarray,
    offsets: np.ndarray,
    idx_sets: np.ndarray,
    idx_indptr: np.ndarray,
    gains: np.ndarray,
    k: int,
) -> Tuple[List[int], int]:
    """Shared vectorized greedy loop; mutates ``gains`` in place."""
    num_sets = offsets.shape[0] - 1
    covered = np.zeros(num_sets, dtype=bool)
    seeds: List[int] = []
    covered_total = 0
    for _ in range(k):
        u = int(np.argmax(gains))  # argmax breaks ties at the lowest id
        seeds.append(u)
        if gains[u] > 0:
            ids = idx_sets[idx_indptr[u] : idx_indptr[u + 1]]
            new = ids[~covered[ids]]
            if new.shape[0]:
                covered[new] = True
                covered_total += int(new.shape[0])
                starts = offsets[new]
                lengths = offsets[new + 1] - starts
                total = int(lengths.sum())
                flat = np.repeat(
                    starts - (np.cumsum(lengths) - lengths), lengths
                ) + np.arange(total)
                gains -= np.bincount(members[flat], minlength=num_nodes)
        # a selected node must never be picked again
        gains[u] = -1
    return seeds, covered_total


def greedy_max_coverage(
    num_nodes: int, members: np.ndarray, offsets: np.ndarray, k: int
) -> Tuple[List[int], int]:
    """Greedy max-coverage over raw flat CSR arrays.

    ``members[offsets[i] : offsets[i+1]]`` are the nodes of set ``i``, and
    they must be distinct within each set (every RR sampler emits sets, so
    a node's occurrence count is its cover count).  Builds the inverted
    index and runs the greedy rounds of :func:`node_selection`.  Returns
    the ordered seed list and the number of covered sets.
    """
    members = np.asarray(members, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    k = min(k, num_nodes)  # same clamp as node_selection: no duplicate seeds
    idx_sets, idx_indptr = build_inverted_index(members, offsets, num_nodes)
    gains = np.diff(idx_indptr).astype(np.int64)
    return _greedy_rounds(
        num_nodes, members, offsets, idx_sets, idx_indptr, gains, k
    )


def node_selection(
    collection: RRCollection, k: int
) -> Tuple[List[int], float]:
    """Greedy max-coverage seed selection (vectorized).

    Parameters
    ----------
    collection:
        RR sets with their inverted index.
    k:
        Number of seeds to select (capped at the number of nodes).

    Returns
    -------
    (seeds, fraction):
        Ordered seed list and the fraction ``F_R(seeds)`` of covered RR sets.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    n = collection.graph.num_nodes
    k = min(k, n)
    num_sets = collection.num_sets
    if num_sets == 0:
        # Degenerate but well-defined: arbitrary (lowest-id) seeds, coverage 0.
        return list(range(k)), 0.0

    with obs.span(
        "rrset.node_selection", k=int(k), num_sets=int(num_sets)
    ), _SELECTION_SECONDS.timer(phase="selection"):
        members, offsets, idx_sets, idx_indptr = collection.selection_arrays()
        gains = collection.cover_counts.astype(np.int64).copy()
        seeds, covered_total = _greedy_rounds(
            n, members, offsets, idx_sets, idx_indptr, gains, k
        )
    return seeds, covered_total / num_sets
