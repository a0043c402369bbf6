"""The batched sampler's sorted-key kernel and the sort-based index.

* exactness — at one chunk, the kernel returns the sets of a dense-bitmap
  reference kernel (the previous implementation, kept here) on the same
  RNG, compared as sets, for IC, LT, a trigger-CSR model and GAP;
* depth — cascades thousands of steps deep keep every ancestor;
* ``build_inverted_index`` equals a stable-argsort reference, and
  ``distinct_sorted`` equals ``np.unique``;
* ``RRCollection`` rejects node ids outside ``[0, n)``.
"""

from typing import Tuple

import numpy as np
import pytest

from repro.diffusion.triggering import (
    AttentionICTriggering,
    LinearThresholdTriggering,
    build_trigger_csr,
    distinct_sorted,
    sample_trigger_members,
    segmented_positions,
)
from repro.engine import EngineContext
from repro.graph.generators import (
    erdos_renyi,
    line_graph,
    random_wc_graph,
)
from repro.graph.weighting import fixed_probability
from repro.rrset import batch
from repro.rrset.batch import (
    batch_generate_gap_rr_sets,
    batch_generate_rr_sets,
)
from repro.rrset.rrgen import RRCollection, build_inverted_index


def dense_reference_chunk(
    graph, rng, batch_size, lt=False, csr=None, gap=None
):
    """One chunk of the dense-bitmap kernel: a ``(walks × n)`` visited
    bitmap, ``np.unique`` dedupe and a stable argsort by walk."""
    n = graph.num_nodes
    visited = np.zeros((batch_size, n), dtype=bool)
    roots = rng.integers(0, n, size=batch_size).astype(np.int64)
    frontier_w = np.arange(batch_size, dtype=np.int64)
    if gap is not None:
        q_plain, q_boosted, boosted, world_ids = gap
        q_root = np.where(boosted[world_ids, roots], q_boosted, q_plain)
        frontier_w = np.flatnonzero(rng.random(batch_size) < q_root)
    frontier_n = roots[frontier_w]
    visited[frontier_w, frontier_n] = True
    walk_parts, node_parts = [frontier_w], [frontier_n]
    while frontier_w.size:
        if csr is not None:
            s, degs = sample_trigger_members(
                csr, frontier_n, rng.random(frontier_n.size)
            )
            w = np.repeat(frontier_w, degs)
        else:
            starts = graph._in_indptr[frontier_n]
            degs = graph._in_indptr[frontier_n + 1] - starts
            total = int(degs.sum())
            if total == 0:
                break
            pos = segmented_positions(starts, degs)
            src, prob = graph._in_sources[pos], graph._in_probs[pos]
            if lt:
                cum = np.cumsum(prob)
                safe = np.minimum(np.cumsum(degs) - degs, total - 1)
                seg_cum = cum - np.repeat(cum[safe] - prob[safe], degs)
                draw = np.repeat(rng.random(frontier_n.size), degs)
                live = (draw < seg_cum) & (draw >= seg_cum - prob)
            else:
                live = rng.random(total) < prob
            w, s = np.repeat(frontier_w, degs)[live], src[live]
        fresh = ~visited[w, s]
        w, s = w[fresh], s[fresh]
        if gap is not None and w.size:
            q = np.where(boosted[world_ids[w], s], q_boosted, q_plain)
            adopt = rng.random(w.size) < q
            w, s = w[adopt], s[adopt]
        if w.size == 0:
            break
        key = np.unique(w * n + s)
        frontier_w, frontier_n = key // n, key % n
        visited[frontier_w, frontier_n] = True
        walk_parts.append(frontier_w)
        node_parts.append(frontier_n)
    walks = np.concatenate(walk_parts)
    order = np.argsort(walks, kind="stable")
    lengths = np.bincount(walks, minlength=batch_size)
    return np.concatenate(node_parts)[order], lengths


def _set_keys(n: int, members: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Each (set, member) pair as one sorted key: set equality per set."""
    set_ids = np.repeat(np.arange(lengths.shape[0], dtype=np.int64), lengths)
    return np.sort(set_ids * n + members)


def _dense_graph(seed: int):
    """Supercritical: large sets, shared in-neighbours within a step."""
    return fixed_probability(300, erdos_renyi(300, 6, seed=seed), 0.25)


class TestKernelMatchesDenseReference:
    COUNT = 3000

    @pytest.fixture(autouse=True)
    def one_chunk(self, monkeypatch):
        # Admit the whole count into the first chunk, as the reference runs.
        assert self.COUNT <= batch._WALK_CAP
        monkeypatch.setattr(batch, "_KEY_BUDGET", self.COUNT * 10**6)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("model", ["ic", "ic-dense", "lt", "attention-ic"])
    def test_rr_sets(self, model, seed):
        graph = (
            _dense_graph(seed)
            if model == "ic-dense"
            else random_wc_graph(400, avg_degree=6, seed=seed)
        )
        triggering, csr = None, None
        if model == "lt":
            triggering = LinearThresholdTriggering()
        elif model == "attention-ic":
            triggering = AttentionICTriggering(3)
            csr = build_trigger_csr(graph, triggering)
        members, lengths = batch_generate_rr_sets(
            graph, np.random.default_rng(seed), self.COUNT,
            triggering=triggering,
        )
        ref_members, ref_lengths = dense_reference_chunk(
            graph, np.random.default_rng(seed), self.COUNT,
            lt=model == "lt", csr=csr,
        )
        assert np.array_equal(lengths, ref_lengths)
        n = graph.num_nodes
        assert np.array_equal(
            _set_keys(n, members, lengths),
            _set_keys(n, ref_members, ref_lengths),
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gap_sets(self, seed):
        graph = _dense_graph(seed)
        n = graph.num_nodes
        boosted = np.random.default_rng(99).random((3, n)) < 0.4
        world_ids = np.arange(self.COUNT, dtype=np.int64) % 3
        members, lengths = batch_generate_gap_rr_sets(
            graph, np.random.default_rng(seed), self.COUNT, 0.7, 0.95,
            boosted, world_ids,
        )
        ref_members, ref_lengths = dense_reference_chunk(
            graph, np.random.default_rng(seed), self.COUNT,
            gap=(0.7, 0.95, boosted, world_ids),
        )
        assert (lengths == 0).any()  # failed root coins are exercised
        assert np.array_equal(lengths, ref_lengths)
        assert np.array_equal(
            _set_keys(n, members, lengths),
            _set_keys(n, ref_members, ref_lengths),
        )


def test_members_ascend_within_each_set():
    graph = _dense_graph(4)
    members, lengths = batch_generate_rr_sets(
        graph, np.random.default_rng(4), 500
    )
    set_ids = np.repeat(np.arange(500, dtype=np.int64), lengths)
    keys = set_ids * graph.num_nodes + members
    assert (np.diff(keys) > 0).all()


def test_deep_chain_keeps_every_ancestor():
    """2000-step cascades: each set from root r is exactly 0..r."""
    members, lengths = batch_generate_rr_sets(
        line_graph(2000, 1.0), np.random.default_rng(5), 300
    )
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    assert lengths.max() > 1000
    for i in range(300):
        rr = members[offsets[i] : offsets[i + 1]]
        assert np.array_equal(rr, np.arange(lengths[i]))


def _stable_argsort_index(
    members: np.ndarray, offsets: np.ndarray, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    set_ids = np.repeat(np.arange(offsets.shape[0] - 1), np.diff(offsets))
    idx_sets = set_ids[np.argsort(members, kind="stable")]
    idx_indptr = np.concatenate(
        ([0], np.cumsum(np.bincount(members, minlength=n)))
    )
    return idx_sets, idx_indptr


@pytest.mark.parametrize(
    "num_nodes, num_sets, max_len",
    [(1, 0, 3), (1, 5, 1), (7, 0, 0), (7, 40, 0), (50, 200, 6),
     (1000, 300, 12)],
)
def test_inverted_index_matches_stable_argsort(num_nodes, num_sets, max_len):
    rng = np.random.default_rng(num_nodes + num_sets)
    lengths = rng.integers(0, max_len + 1, size=num_sets)
    lengths = np.minimum(lengths, num_nodes)
    sets = [rng.choice(num_nodes, size=k, replace=False) for k in lengths]
    members = (
        np.concatenate(sets).astype(np.int64)
        if sets
        else np.empty(0, dtype=np.int64)
    )
    offsets = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
    idx_sets, idx_indptr = build_inverted_index(members, offsets, num_nodes)
    ref_sets, ref_indptr = _stable_argsort_index(members, offsets, num_nodes)
    assert idx_sets.dtype == np.int64
    assert np.array_equal(idx_sets, ref_sets)
    assert np.array_equal(idx_indptr, ref_indptr)


@pytest.mark.parametrize("size, high", [(0, 5), (1, 5), (2, 1), (500, 40),
                                        (5000, 10**12)])
def test_distinct_sorted_equals_unique(size, high):
    keys = np.random.default_rng(size).integers(0, high, size=size)
    got = distinct_sorted(keys)
    assert got.dtype == keys.dtype
    assert np.array_equal(got, np.unique(keys))


class TestCollectionRangeChecks:
    @pytest.fixture(scope="class")
    def collection(self):
        coll = RRCollection(
            random_wc_graph(50, avg_degree=4, seed=8),
            ctx=EngineContext.create(
                backend="batched", rng=np.random.default_rng(8)
            ),
        )
        coll.generate(200)
        return coll

    @pytest.mark.parametrize("node", [-1, 50])
    def test_containing_rejects_out_of_range(self, collection, node):
        with pytest.raises(IndexError, match=r"out of range \[0, 50\)"):
            collection.containing(node)

    @pytest.mark.parametrize("node", [-1, 50])
    def test_coverage_rejects_out_of_range(self, collection, node):
        with pytest.raises(IndexError, match=r"out of range \[0, 50\)"):
            collection.coverage_fraction([3, node])

    def test_valid_id_answers(self, collection):
        ids = collection.containing(49)
        assert collection.coverage_fraction([49]) == pytest.approx(
            ids.shape[0] / 200
        )
        assert collection.cover_counts[49] == ids.shape[0]
