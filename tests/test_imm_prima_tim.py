"""Unit and statistical tests for IMM and PRIMA."""

import numpy as np
import pytest

from repro.diffusion.ic import estimate_spread
from repro.graph.generators import star_graph
from repro.rrset.bounds import adjusted_ell, ell_prime_for
from repro.rrset.imm import imm, imm_seed_pool
from repro.rrset.prima import prima


class TestIMM:
    def test_star_graph_hub_first(self):
        g = star_graph(50, probability=0.5, outward=True)
        result = imm(g, 1, rng=np.random.default_rng(0))
        assert result.seeds == (0,)

    def test_seed_count(self, medium_graph):
        result = imm(medium_graph, 15, rng=np.random.default_rng(1))
        assert len(result.seeds) == 15
        assert len(set(result.seeds)) == 15

    def test_quality_vs_random(self, medium_graph):
        result = imm(medium_graph, 10, rng=np.random.default_rng(2))
        rng = np.random.default_rng(3)
        spread_imm = estimate_spread(medium_graph, result.seeds, 300, rng)
        random_seeds = np.random.default_rng(4).choice(
            medium_graph.num_nodes, size=10, replace=False
        )
        spread_rand = estimate_spread(medium_graph, random_seeds, 300, rng)
        assert spread_imm > 1.5 * spread_rand

    def test_zero_budget(self, small_graph):
        result = imm(small_graph, 0, rng=np.random.default_rng(0))
        assert result.seeds == ()
        assert result.num_rr_sets == 0

    def test_seed_pool(self, small_graph):
        pool = imm_seed_pool(small_graph, 12, rng=np.random.default_rng(5))
        assert len(pool) == 12


class TestPRIMA:
    def test_budgets_sorted_non_increasing(self, small_graph):
        result = prima(small_graph, [5, 20, 10], rng=np.random.default_rng(0))
        assert result.budgets == (20, 10, 5)
        assert len(result.seeds) == 20

    def test_seeds_for_budget_prefix(self, small_graph):
        result = prima(small_graph, [5, 20, 10], rng=np.random.default_rng(0))
        assert result.seeds_for_budget(5) == result.seeds[:5]
        with pytest.raises(ValueError):
            result.seeds_for_budget(100)

    def test_empty_budget_vector_rejected(self, small_graph):
        with pytest.raises(ValueError):
            prima(small_graph, [])

    def test_negative_budget_rejected(self, small_graph):
        with pytest.raises(ValueError):
            prima(small_graph, [5, -1])

    def test_budget_exceeding_n_is_capped(self, small_graph):
        result = prima(
            small_graph, [small_graph.num_nodes + 50], rng=np.random.default_rng(0)
        )
        assert len(result.seeds) == small_graph.num_nodes

    def test_zero_budget_degenerate(self, small_graph):
        result = prima(small_graph, [0], rng=np.random.default_rng(0))
        assert result.seeds == ()

    def test_prefix_preserving_quality(self, medium_graph):
        """Definition 1, statistically: each prefix's spread is within a
        (1 - 1/e - eps) factor of a dedicated IMM run's spread."""
        budgets = [40, 15, 5]
        result = prima(
            medium_graph, budgets, epsilon=0.5, rng=np.random.default_rng(7)
        )
        rng = np.random.default_rng(8)
        for k in budgets:
            prefix_spread = estimate_spread(
                medium_graph, result.seeds_for_budget(k), 250, rng
            )
            dedicated = imm(
                medium_graph, k, epsilon=0.5, rng=np.random.default_rng(9)
            )
            dedicated_spread = estimate_spread(
                medium_graph, dedicated.seeds, 250, rng
            )
            # dedicated is itself only (1-1/e-eps)-approximate; allow the
            # prefix to be modestly below it, never catastrophically.
            assert prefix_spread >= 0.8 * dedicated_spread

    def test_single_budget_matches_imm_exactly(self, small_graph):
        """PRIMA with |b|=1 *is* IMM: same RNG stream => same seeds/counts."""
        ell_p = ell_prime_for(adjusted_ell(1.0, small_graph.num_nodes),
                              small_graph.num_nodes, 1)
        p = prima(small_graph, [10], epsilon=0.5, ell=1.0,
                  rng=np.random.default_rng(42))
        i = imm(small_graph, 10, epsilon=0.5, ell=1.0,
                rng=np.random.default_rng(42), ell_prime=ell_p)
        assert p.seeds == i.seeds
        assert p.num_rr_sets == i.num_rr_sets

    def test_duplicate_budgets(self, small_graph):
        result = prima(small_graph, [10, 10, 10], rng=np.random.default_rng(0))
        assert len(result.seeds) == 10

    def test_deterministic_given_rng(self, small_graph):
        a = prima(small_graph, [8, 4], rng=np.random.default_rng(3))
        b = prima(small_graph, [8, 4], rng=np.random.default_rng(3))
        assert a.seeds == b.seeds
        assert a.num_rr_sets == b.num_rr_sets

    def test_lower_bounds_recorded(self, small_graph):
        result = prima(small_graph, [10, 5], rng=np.random.default_rng(1))
        assert len(result.lower_bounds) == 2
        assert all(lb >= 1.0 for lb in result.lower_bounds)
