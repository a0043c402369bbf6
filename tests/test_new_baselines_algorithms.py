"""Tests for marginal-greedy, MC greedy IM, and the competitive
(submodular) valuation extension."""

import numpy as np
import pytest

from repro.baselines.marginal_greedy import marginal_greedy
from repro.core.bundlegrd import bundle_grd
from repro.diffusion.ic import estimate_spread
from repro.diffusion.uic import simulate_uic
from repro.diffusion.welfare import estimate_welfare
from repro.graph.digraph import InfluenceGraph
from repro.graph.generators import line_graph, random_wc_graph, star_graph
from repro.rrset.greedy_mc import greedy_mc
from repro.rrset.imm import imm
from repro.utility.model import UtilityModel
from repro.utility.noise import ZeroNoise
from repro.utility.price import AdditivePrice
from repro.utility.valuation import (
    ConcaveOverAdditiveValuation,
    TableValuation,
    is_monotone,
    is_submodular,
    is_supermodular,
)


class TestMarginalGreedy:
    @pytest.fixture
    def model(self) -> UtilityModel:
        return UtilityModel(
            TableValuation(2, {0b01: 4.0, 0b10: 5.0, 0b11: 10.0}),
            AdditivePrice([3.0, 4.0]),
            ZeroNoise(2),
        )

    def test_respects_budgets(self, model):
        graph = line_graph(6, 0.8)
        result = marginal_greedy(graph, model, [2, 1], num_samples=30)
        assert result.allocation.respects_budgets([2, 1])
        assert len(result.allocation.seeds_of_item(0)) == 2
        assert len(result.allocation.seeds_of_item(1)) == 1

    def test_picks_influential_node_on_star(self, model):
        graph = star_graph(10, probability=1.0)
        result = marginal_greedy(graph, model, [1, 1], num_samples=20)
        # the hub dominates every marginal: both items go there
        assert result.allocation.seeds_of_item(0) == {0}
        assert result.allocation.seeds_of_item(1) == {0}

    def test_budget_mismatch_rejected(self, model):
        with pytest.raises(ValueError):
            marginal_greedy(line_graph(3, 1.0), model, [1], num_samples=5)

    def test_candidate_shortlist(self, model):
        graph = line_graph(8, 1.0)
        result = marginal_greedy(
            graph, model, [1, 1], candidate_nodes=[3, 4], num_samples=20
        )
        assert result.allocation.seed_nodes() <= {3, 4}

    def test_evaluation_count_tracked(self, model):
        graph = line_graph(5, 0.5)
        result = marginal_greedy(graph, model, [1, 1], num_samples=10)
        # initial pass: 5 nodes x 2 items, plus lazy re-evals + final
        assert result.num_evaluations >= 11

    def test_comparable_to_bundlegrd_on_small_graph(self, model):
        """The expensive baseline should not beat bundleGRD meaningfully."""
        graph = random_wc_graph(120, 5, seed=6)
        shortlist = list(range(0, 120, 4))
        mg = marginal_greedy(
            graph, model, [3, 3], candidate_nodes=shortlist, num_samples=40
        )
        bg = bundle_grd(graph, [3, 3], rng=np.random.default_rng(0))
        bg_welfare = estimate_welfare(
            graph, model, bg.allocation, 200, np.random.default_rng(1)
        ).mean
        mg_welfare = estimate_welfare(
            graph, model, mg.allocation, 200, np.random.default_rng(1)
        ).mean
        assert bg_welfare >= 0.75 * mg_welfare


class TestGreedyMC:
    def test_star_hub_first(self):
        graph = star_graph(20, probability=0.7)
        result = greedy_mc(graph, 2, num_samples=50)
        assert result.seeds[0] == 0

    def test_seed_count_and_uniqueness(self, small_graph):
        result = greedy_mc(
            small_graph, 5, num_samples=30,
            candidate_nodes=list(range(0, 300, 10)),
        )
        assert len(result.seeds) == 5
        assert len(set(result.seeds)) == 5

    def test_zero_budget(self, small_graph):
        result = greedy_mc(small_graph, 0)
        assert result.seeds == ()

    def test_negative_budget_rejected(self, small_graph):
        with pytest.raises(ValueError):
            greedy_mc(small_graph, -2)

    def test_quality_matches_imm(self):
        """Cross-validation: CELF MC greedy and IMM agree on seed quality.

        The greedy searches all nodes (degree shortlists mislead on this
        topology: influence flows new -> old, so high-spread nodes are not
        the high-out-degree ones).
        """
        graph = random_wc_graph(400, 6, seed=8)
        mc = greedy_mc(graph, 5, num_samples=40)
        ris = imm(graph, 5, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        spread_mc = estimate_spread(graph, mc.seeds, 300, rng)
        spread_ris = estimate_spread(graph, ris.seeds, 300, rng)
        assert spread_mc >= 0.8 * spread_ris


class TestCompetitiveValuation:
    def test_monotone_and_submodular(self):
        v = ConcaveOverAdditiveValuation([2.0, 3.0, 4.0], exponent=0.5)
        assert is_monotone(v)
        assert is_submodular(v)
        assert not is_supermodular(v)

    def test_exponent_one_is_additive(self):
        v = ConcaveOverAdditiveValuation([2.0, 3.0], exponent=1.0)
        assert v.value(0b11) == pytest.approx(5.0)
        assert is_supermodular(v)  # additive = modular

    def test_validation(self):
        with pytest.raises(ValueError):
            ConcaveOverAdditiveValuation([-1.0])
        with pytest.raises(ValueError):
            ConcaveOverAdditiveValuation([1.0], exponent=0.0)
        with pytest.raises(ValueError):
            ConcaveOverAdditiveValuation([1.0], scale=-1.0)

    def test_competition_adopts_single_item(self):
        """Substitutes: each item is worth its price alone, but the second
        item's marginal is below its price — the user adopts exactly one."""
        # V({i}) = 3, V({i,j}) = sqrt(18) ≈ 4.24; price 2 each.
        v = ConcaveOverAdditiveValuation([9.0, 9.0], exponent=0.5)
        model = UtilityModel(v, AdditivePrice([2.0, 2.0]), ZeroNoise(2))
        assert model.expected_utility(0b01) == pytest.approx(1.0)
        assert model.expected_utility(0b11) < model.expected_utility(0b01)
        graph = InfluenceGraph(1, [])
        result = simulate_uic(
            graph, model, [(0, 0), (0, 1)], np.random.default_rng(0)
        )
        adopted = result.adopted[0]
        assert adopted in (0b01, 0b10)  # exactly one of the substitutes

    def test_competitive_diffusion_runs_end_to_end(self):
        v = ConcaveOverAdditiveValuation([9.0, 9.0, 9.0], exponent=0.5)
        model = UtilityModel(
            v, AdditivePrice([2.0, 2.0, 2.0]), ZeroNoise(3)
        )
        graph = random_wc_graph(200, 6, seed=9)
        alloc = [(n, i) for n in range(6) for i in range(3)]
        est = estimate_welfare(
            graph, model, alloc, 50, np.random.default_rng(1)
        )
        assert est.mean > 0.0
