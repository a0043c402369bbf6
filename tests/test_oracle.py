"""Tests for the prefix-preserving influence oracle (``OracleService``)."""

import itertools

import numpy as np
import pytest

from repro.diffusion.ic import estimate_spread
from repro.engine import EngineContext
from repro.graph.digraph import InfluenceGraph
from repro.graph.generators import random_wc_graph, star_graph
from repro.store import OracleService, build_store


@pytest.fixture(scope="module")
def oracle():
    graph = random_wc_graph(800, 7, seed=44)
    store = build_store(
        graph, 25, ctx=EngineContext.create(seed=0),
        estimation_rr_sets=4000,
    )
    return OracleService(store, graph), graph


class TestConstruction:
    def test_invalid_budget(self):
        graph = star_graph(5)
        with pytest.raises(ValueError):
            build_store(graph, max_budget=0)

    def test_budget_capped_at_n(self):
        graph = star_graph(4)  # 5 nodes
        oracle = OracleService(
            build_store(graph, max_budget=50, estimation_rr_sets=100), graph
        )
        assert oracle.max_budget == 5

    def test_repr(self, oracle):
        o, _ = oracle
        assert "max_budget=25" in repr(o)


class TestSeedQueries:
    def test_prefix_structure(self, oracle):
        o, _ = oracle
        assert o.seeds(5) == o.seed_order[:5]
        assert o.seeds(25) == o.seed_order
        assert o.seeds(0) == ()

    def test_out_of_range(self, oracle):
        o, _ = oracle
        with pytest.raises(ValueError):
            o.seeds(26)
        with pytest.raises(ValueError):
            o.seeds(-1)

    def test_prefix_quality(self, oracle):
        """Every queried prefix spreads comparably to its own size's worth."""
        o, graph = oracle
        rng = np.random.default_rng(1)
        spread_5 = estimate_spread(graph, o.seeds(5), 300, rng)
        spread_15 = estimate_spread(graph, o.seeds(15), 300, rng)
        assert spread_15 > spread_5 > 0


class TestSpreadQueries:
    def test_estimate_matches_mc(self, oracle):
        o, graph = oracle
        seeds = o.seeds(10)
        from_rr = o.estimate_spread(seeds)
        from_mc = estimate_spread(graph, seeds, 500, np.random.default_rng(2))
        assert from_rr == pytest.approx(from_mc, rel=0.2)

    def test_empty_seed_set(self, oracle):
        o, _ = oracle
        assert o.estimate_spread([]) == 0.0

    def test_spread_curve_monotone(self, oracle):
        o, _ = oracle
        curve = o.spread_curve([1, 5, 10, 20])
        values = [v for _, v in curve]
        assert values == sorted(values)


class TestAllocationQueries:
    def test_allocate_uses_precomputed_order(self, oracle):
        o, _ = oracle
        result = o.allocate([10, 4])
        assert result.num_rr_sets == 0  # no new PRIMA run
        assert result.allocation.seeds_of_item(0) == set(o.seeds(10))
        assert result.allocation.seeds_of_item(1) == set(o.seeds(4))

    def test_allocate_rejects_over_budget(self, oracle):
        o, _ = oracle
        with pytest.raises(ValueError):
            o.allocate([30])

    def test_repeated_allocations_consistent(self, oracle):
        o, _ = oracle
        a = o.allocate([8, 3])
        b = o.allocate([8, 3])
        assert a.allocation == b.allocation


# A 6-node, 9-edge IC graph: two paths into node 5, a back edge and a
# chord, so live-edge worlds differ in which cascades merge.
EXACT_EDGES = [
    (0, 1, 0.6), (0, 2, 0.3), (1, 3, 0.5), (2, 3, 0.7), (1, 2, 0.4),
    (3, 4, 0.8), (4, 5, 0.35), (2, 5, 0.25), (5, 0, 0.2),
]
EXACT_SEED_SETS = [(0,), (3,), (5,), (2, 4), (1, 5), (0, 3, 4)]


def exact_spread(num_nodes, edges, seeds):
    """σ(S) by enumerating all 2^m live-edge worlds of an IC graph."""
    total = 0.0
    for live in itertools.product((False, True), repeat=len(edges)):
        weight = 1.0
        out = {v: [] for v in range(num_nodes)}
        for is_live, (u, v, p) in zip(live, edges):
            weight *= p if is_live else 1.0 - p
            if is_live:
                out[u].append(v)
        reached, frontier = set(seeds), list(seeds)
        while frontier:
            frontier = [v for u in frontier for v in out[u] if v not in reached]
            reached.update(frontier)
        total += weight * len(reached)
    return total


class TestExactSpread:
    """Spread answers against ground truth, not another estimator."""

    THETA = 20_000

    @pytest.mark.parametrize("backend", ["sequential", "batched"])
    def test_spread_matches_live_edge_enumeration(self, backend, tmp_path):
        graph = InfluenceGraph(6, EXACT_EDGES)
        n = graph.num_nodes
        store = build_store(
            graph, 3, estimation_rr_sets=self.THETA,
            ctx=EngineContext.create(seed=4, backend=backend),
        )
        path = tmp_path / "exact.sketch"
        store.save(path)
        in_memory = OracleService(store, graph)
        loaded = OracleService.open(path, graph)
        for seeds in EXACT_SEED_SETS:
            truth = exact_spread(n, EXACT_EDGES, seeds)
            f = truth / n
            tolerance = 4.0 * n * np.sqrt(f * (1.0 - f) / self.THETA)
            answer = in_memory.estimate_spread(seeds)
            assert loaded.estimate_spread(seeds) == answer
            assert abs(answer - truth) <= tolerance, (seeds, answer, truth)
