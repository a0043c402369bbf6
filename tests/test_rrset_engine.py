"""Tests for the vectorized batched RR-set engine.

Covers the three engine layers introduced with the flat CSR refactor:

* exact equivalence — the ``sequential`` backend reproduces the historical
  per-set sampler bit for bit (same RNG stream, same sets, and byte-identical
  PRIMA seed tuples against pre-refactor golden values);
* statistical equivalence — the ``batched`` backend matches the sequential
  sampler's coverage statistics within tolerance (IC and LT) on a 1k-node
  Watts–Strogatz graph;
* vectorized NodeSelection — bit-for-bit identical to the reference
  per-element greedy loop, including the lowest-id tie-break contract;
* the invariant selection relies on — every sampler feeding it emits each
  (set, node) pair at most once.
"""

import numpy as np
import pytest

from repro.baselines._comic_common import _GapSampler
from repro.diffusion.triggering import (
    AttentionICTriggering,
    LinearThresholdTriggering,
    TriggeringModel,
)
from repro.graph.generators import (
    erdos_renyi,
    line_graph,
    random_wc_graph,
    star_graph,
    watts_strogatz_wc_graph,
)
from repro.graph.weighting import fixed_probability
from repro.rrset.batch import (
    BACKEND_ENV,
    batch_generate_gap_rr_sets,
    batch_generate_rr_sets,
    resolve_backend,
    supports_batched,
)
from repro.rrset.node_selection import greedy_max_coverage, node_selection
from repro.engine import EngineContext
from repro.rrset.prima import prima
from repro.rrset.rrgen import RRCollection, generate_rr_set

# Golden outputs of the pre-refactor (pure-Python, list-of-lists) PRIMA
# implementation, captured at seed commit eefbe22: byte-identical
# reproduction under backend="sequential" is the refactor's contract.
GOLDEN_WC300_SEEDS = (297, 189, 274, 215, 194, 196, 208, 197, 262, 187)
GOLDEN_WC300_NUM_RR_SETS = 6774
GOLDEN_WC150_SEEDS = (147, 99, 127, 136, 143, 62, 114, 63)
GOLDEN_WC150_NUM_RR_SETS = 2454


def _ctx(backend, seed):
    """A lineage-less context on ``backend`` over ``default_rng(seed)``."""
    return EngineContext.create(
        backend=backend, rng=np.random.default_rng(seed)
    )


class TestSequentialExactEquivalence:
    def test_collection_matches_legacy_per_set_sampler(self):
        g = random_wc_graph(200, avg_degree=6, seed=21)
        rng_coll = np.random.default_rng(5)
        rng_legacy = np.random.default_rng(5)
        coll = RRCollection(
            g, ctx=EngineContext.create(backend="sequential", rng=rng_coll)
        )
        coll.generate(60)
        for i in range(60):
            legacy = generate_rr_set(g, rng_legacy)
            assert np.array_equal(coll.sets()[i], legacy)

    def test_prima_sequential_matches_golden_300(self):
        g = random_wc_graph(300, avg_degree=6, seed=99)
        result = prima(
            g, [10, 5],
            ctx=EngineContext.create(
                backend="sequential", rng=np.random.default_rng(42)
            ),
        )
        assert result.seeds == GOLDEN_WC300_SEEDS
        assert result.num_rr_sets == GOLDEN_WC300_NUM_RR_SETS

    def test_prima_sequential_matches_golden_150(self):
        g = random_wc_graph(150, avg_degree=5, seed=7)
        result = prima(
            g, [8],
            ctx=EngineContext.create(
                backend="sequential", rng=np.random.default_rng(3)
            ),
        )
        assert result.seeds == GOLDEN_WC150_SEEDS
        assert result.num_rr_sets == GOLDEN_WC150_NUM_RR_SETS


class TestBatchedSampler:
    def test_lengths_sum_to_members(self):
        g = random_wc_graph(500, avg_degree=6, seed=2)
        members, lengths = batch_generate_rr_sets(
            g, np.random.default_rng(0), 250
        )
        assert lengths.shape[0] == 250
        assert int(lengths.sum()) == members.shape[0]
        assert (lengths >= 1).all()  # every set contains its root

    def test_deterministic_given_rng(self):
        g = random_wc_graph(400, avg_degree=5, seed=4)
        m1, l1 = batch_generate_rr_sets(g, np.random.default_rng(9), 100)
        m2, l2 = batch_generate_rr_sets(g, np.random.default_rng(9), 100)
        assert np.array_equal(m1, m2)
        assert np.array_equal(l1, l2)

    def test_line_graph_full_probability_reaches_all_ancestors(self):
        g = line_graph(8, 1.0)
        members, lengths = batch_generate_rr_sets(
            g, np.random.default_rng(1), 40
        )
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        for i in range(40):
            rr = set(members[offsets[i] : offsets[i + 1]].tolist())
            root = max(rr)
            assert rr == set(range(root + 1))

    def test_zero_probability_sets_are_roots_only(self):
        g = line_graph(8, 0.0)
        members, lengths = batch_generate_rr_sets(
            g, np.random.default_rng(1), 40
        )
        assert (lengths == 1).all()

    def test_empty_graph_rejected(self):
        from repro.graph.digraph import InfluenceGraph

        with pytest.raises(ValueError):
            batch_generate_rr_sets(
                InfluenceGraph(0, []), np.random.default_rng(0), 3
            )

    def test_hit_probability_matches_sequential_watts_strogatz(self):
        """Statistical equivalence on a 1k-node Watts–Strogatz graph."""
        g = watts_strogatz_wc_graph(
            1000, nearest_neighbors=6, rewire_probability=0.1, seed=13
        )
        count = 4000
        seq = RRCollection(g, ctx=_ctx("sequential", 3))
        seq.generate(count)
        bat = RRCollection(g, ctx=_ctx("batched", 3))
        bat.generate(count)
        # Same expected width and, for a common probe seed set, the same
        # expected coverage fraction.
        assert bat.total_width == pytest.approx(seq.total_width, rel=0.06)
        probe = list(range(0, 1000, 50))  # 20 fixed nodes
        assert bat.coverage_fraction(probe) == pytest.approx(
            seq.coverage_fraction(probe), rel=0.08, abs=0.01
        )

    def test_lt_statistical_equivalence(self):
        g = watts_strogatz_wc_graph(
            600, nearest_neighbors=6, rewire_probability=0.2, seed=8
        )
        lt = LinearThresholdTriggering()
        count = 4000
        seq = RRCollection(g, triggering=lt, ctx=_ctx("sequential", 5))
        seq.generate(count)
        bat = RRCollection(g, triggering=lt, ctx=_ctx("batched", 5))
        bat.generate(count)
        assert bat.total_width == pytest.approx(seq.total_width, rel=0.06)
        probe = list(range(0, 600, 30))
        assert bat.coverage_fraction(probe) == pytest.approx(
            seq.coverage_fraction(probe), rel=0.08, abs=0.01
        )

    def test_batched_prima_star_graph_hub_first(self):
        g = star_graph(60, probability=0.5, outward=True)
        result = prima(
            g, [1],
            ctx=EngineContext.create(
                backend="batched", rng=np.random.default_rng(0)
            ),
        )
        assert result.seeds == (0,)

    def test_generic_triggering_model_falls_back_to_sequential(self):
        class EmptyTrigger(TriggeringModel):
            def sample_trigger_set(self, graph, node, rng):
                return graph.in_neighbors(node)[:0]

        assert not supports_batched(EmptyTrigger())
        g = random_wc_graph(50, avg_degree=4, seed=1)
        coll = RRCollection(
            g, triggering=EmptyTrigger(), ctx=_ctx("batched", 0)
        )
        coll.generate(20)  # silently routed through the sequential sampler
        assert coll.num_sets == 20
        assert coll.total_width == 20  # empty trigger sets: roots only


class TestBackendResolution:
    def test_default_is_batched(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend(None) == "batched"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "sequential")
        assert resolve_backend(None) == "sequential"
        coll = RRCollection(
            line_graph(3, 1.0), np.random.default_rng(0)
        )
        assert coll.backend == "sequential"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "sequential")
        assert resolve_backend("batched") == "batched"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("vectorized")
        with pytest.raises(ValueError):
            EngineContext.create(backend="bogus")


class TestFlatStorage:
    def test_add_sets_roundtrip(self):
        g = line_graph(6, 0.0)
        coll = RRCollection(g, np.random.default_rng(0))
        sets = [[0, 2], [1], [3, 4, 5], [], [2, 3]]
        coll.add_sets(sets)
        assert coll.num_sets == 5
        assert coll.total_width == 8
        for i, s in enumerate(sets):
            assert coll.sets()[i].tolist() == s
        assert coll.cover_counts.tolist() == [1, 1, 2, 2, 1, 1]
        assert sorted(coll.containing(3).tolist()) == [2, 4]

    def test_sets_views_are_read_only(self):
        g = line_graph(4, 0.0)
        coll = RRCollection(g, np.random.default_rng(0))
        coll.add_sets([[0, 1], [2]])
        with pytest.raises(ValueError):
            coll.sets()[0][0] = 9
        with pytest.raises(ValueError):
            coll.containing(0)[0] = 9

    def test_growth_across_many_batches(self):
        g = random_wc_graph(120, avg_degree=5, seed=3)
        coll = RRCollection(g, ctx=_ctx("batched", 1))
        for _ in range(12):
            coll.generate(100)  # forces several capacity doublings
        assert coll.num_sets == 1200
        members, offsets, idx_sets, idx_indptr = coll.selection_arrays()
        assert offsets[-1] == members.shape[0] == coll.total_width
        assert idx_sets.shape[0] == members.shape[0]
        assert int(coll.cover_counts.sum()) == coll.total_width

    def test_coverage_fraction_scratch_reuse(self):
        """Repeated/interleaved queries must stay exact (epoch scratch)."""
        g = line_graph(5, 0.0)
        coll = RRCollection(g, np.random.default_rng(0))
        coll.add_sets([[0], [0, 1], [2]])
        assert coll.coverage_fraction([0]) == pytest.approx(2 / 3)
        assert coll.coverage_fraction([0, 1]) == pytest.approx(2 / 3)
        assert coll.coverage_fraction([0, 2]) == 1.0
        assert coll.coverage_fraction([3]) == 0.0
        coll.add_sets([[3]])  # grow, then query again
        assert coll.coverage_fraction([3]) == pytest.approx(1 / 4)
        assert coll.coverage_fraction([0, 1, 2, 3]) == 1.0
        # duplicate seeds must not double-count
        assert coll.coverage_fraction([0, 0, 0]) == pytest.approx(2 / 4)

    def test_reset_then_regrow(self):
        g = random_wc_graph(80, avg_degree=4, seed=6)
        coll = RRCollection(g, ctx=_ctx("batched", 2))
        coll.generate(50)
        first = coll.coverage_fraction(range(10))
        coll.reset()
        assert coll.num_sets == 0
        assert coll.coverage_fraction([0]) == 0.0
        coll.generate(50)
        assert coll.num_sets == 50
        assert 0.0 <= coll.coverage_fraction(range(10)) <= 1.0
        assert first >= 0.0


def node_selection_reference(collection, k):
    """The historical per-element greedy loop (equivalence oracle).

    Same tie-break contract as :func:`node_selection`: highest residual
    gain, ties to the smallest node id.
    """
    n = collection.graph.num_nodes
    k = min(k, n)
    num_sets = collection.num_sets
    if num_sets == 0:
        return list(range(k)), 0.0

    gains = collection.cover_counts.astype(np.int64)
    covered = np.zeros(num_sets, dtype=bool)
    sets = collection.sets()
    seeds = []
    covered_total = 0
    for _ in range(k):
        u = int(np.argmax(gains))
        seeds.append(u)
        if gains[u] > 0:
            for rr_id in collection.containing(u):
                if covered[rr_id]:
                    continue
                covered[rr_id] = True
                covered_total += 1
                for w in sets[rr_id]:
                    gains[int(w)] -= 1
        gains[u] = -1
    return seeds, covered_total / num_sets


class TestVectorizedNodeSelection:
    def _random_collection(self, seed, n=150, count=400):
        g = random_wc_graph(n, avg_degree=6, seed=seed)
        coll = RRCollection(g, ctx=_ctx("batched", seed))
        coll.generate(count)
        return coll

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_reference_bit_for_bit(self, seed):
        coll = self._random_collection(seed)
        for k in (1, 5, 20):
            assert node_selection(coll, k) == node_selection_reference(
                coll, k
            )

    def test_tie_break_lowest_id(self):
        g = line_graph(6, 0.0)
        coll = RRCollection(g, np.random.default_rng(0))
        coll.add_sets([[4], [2], [5]])  # three singletons, all gain 1
        seeds, _ = node_selection(coll, 2)
        assert seeds == node_selection_reference(coll, 2)[0]
        assert seeds == [2, 4]

    def test_k_exceeding_positive_gain_nodes(self):
        g = line_graph(5, 0.0)
        coll = RRCollection(g, np.random.default_rng(0))
        coll.add_sets([[1], [1]])
        seeds, frac = node_selection(coll, 4)
        ref = node_selection_reference(coll, 4)
        assert (seeds, frac) == ref
        assert seeds[0] == 1
        assert len(set(seeds)) == 4

    def test_greedy_max_coverage_flat_api(self):
        members = np.array([0, 1, 0, 2, 0, 3, 4, 4], dtype=np.int64)
        offsets = np.array([0, 2, 4, 6, 7, 8], dtype=np.int64)
        seeds, covered = greedy_max_coverage(5, members, offsets, 2)
        assert seeds == [0, 4]
        assert covered == 5

    def test_add_sets_dedups_repeated_members(self):
        g = line_graph(4, 0.0)
        coll = RRCollection(g, np.random.default_rng(0))
        coll.add_sets([[2, 2, 0, 2], [1, 1]])
        assert coll.sets()[0].tolist() == [0, 2]
        assert coll.total_width == 3
        assert coll.cover_counts.tolist() == [1, 1, 1, 0]
        assert coll.coverage_fraction([2]) == pytest.approx(0.5)

    def test_greedy_max_coverage_clamps_k_to_num_nodes(self):
        members = np.array([0, 1, 1, 2], dtype=np.int64)
        offsets = np.array([0, 2, 4], dtype=np.int64)
        seeds, covered = greedy_max_coverage(3, members, offsets, 5)
        assert len(seeds) == 3
        assert len(set(seeds)) == 3  # no duplicate seeds past exhaustion
        assert covered == 2


def _assert_distinct_members(num_nodes, members, lengths):
    """No (set, node) pair occurs twice in a flat sampler output."""
    assert int(lengths.sum()) == members.size
    set_id = np.repeat(np.arange(lengths.shape[0], dtype=np.int64), lengths)
    assert np.unique(set_id * num_nodes + members).size == members.size


class TestSamplersEmitDistinctMembers:
    """Selection counts a node's occurrences as its cover count, so every
    sampler feeding it must emit distinct members within each set."""

    SEEDS = (0, 1, 2)

    @staticmethod
    def _dense_graph(seed):
        # Supercritical fixed-probability graph: large sets, and frontier
        # nodes often share in-neighbours within one expansion round.
        return fixed_probability(300, erdos_renyi(300, 6, seed=seed), 0.25)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "triggering",
        [None, LinearThresholdTriggering(), AttentionICTriggering(3)],
        ids=["ic", "lt", "attention-ic"],
    )
    def test_batch_generate_rr_sets(self, triggering, seed):
        g = (
            random_wc_graph(300, avg_degree=6, seed=seed)
            if isinstance(triggering, LinearThresholdTriggering)
            else self._dense_graph(seed)
        )
        members, lengths = batch_generate_rr_sets(
            g, np.random.default_rng(seed), 400, triggering=triggering
        )
        _assert_distinct_members(g.num_nodes, members, lengths)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_batch_generate_gap_rr_sets(self, seed):
        g = self._dense_graph(seed)
        rng = np.random.default_rng(seed)
        boosted = rng.random((3, g.num_nodes)) < 0.4
        world_ids = rng.integers(0, 3, 400)
        members, lengths = batch_generate_gap_rr_sets(
            g, rng, 400, 0.7, 0.95, boosted, world_ids
        )
        _assert_distinct_members(g.num_nodes, members, lengths)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("backend", ["sequential", "batched"])
    def test_gap_sampler(self, backend, seed):
        g = self._dense_graph(seed)
        sampler = _GapSampler(
            g, q_plain=0.7, q_boosted=0.95,
            ctx=EngineContext.create(backend=backend, seed=seed),
        )
        sampler.set_worlds([set(range(0, 300, 3)), set(range(1, 300, 5))])
        members, lengths = sampler.sample(200)
        _assert_distinct_members(g.num_nodes, members, lengths)
