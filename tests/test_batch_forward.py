"""Batched forward-simulation engine: equivalence against the sequential
oracles (IC / Com-IC / UIC), the generic-triggering vectorized sampler, and
the backend plumbing of the forward estimators.

Contract under test (DESIGN.md §3): the sequential simulators stay
byte-identical reference oracles; the batched engine consumes randomness in
vectorized order, so agreement is *exact* on deterministic instances and
*statistical* elsewhere.  Statistical tolerances are set at >= 5 sigma of
the Monte-Carlo noise so the pins hold across numpy versions.
"""

import tracemalloc

import numpy as np
import pytest

from repro.baselines._comic_common import _forward_adopter_worlds, _GapSampler
from repro.diffusion import batch_forward
from repro.diffusion.adoption import adopt
from repro.diffusion.batch_forward import (
    MAX_BATCH_ITEMS,
    _decision_tables,
    batch_comic_counts,
    batch_simulate_comic,
    batch_simulate_ic,
    batch_simulate_uic,
    batch_uic_counts,
    batch_uic_welfare,
    supports_batched_uic,
)
from repro.diffusion.comic import (
    ComICModel,
    estimate_comic_spread,
    simulate_comic,
)
from repro.diffusion.ic import estimate_spread
from repro.diffusion.personalized import estimate_welfare_personalized
from repro.diffusion.triggering import (
    AttentionICTriggering,
    DistributionTriggering,
    IndependentCascadeTriggering,
    LinearThresholdTriggering,
    TriggeringModel,
    build_trigger_csr,
    sample_trigger_members,
)
from repro.diffusion.uic import simulate_uic
from repro.diffusion.welfare import estimate_adoption, estimate_welfare
from repro.engine import EngineContext
from repro.experiments.configs import multi_item_config
from repro.graph.digraph import InfluenceGraph
from repro.graph.generators import line_graph, random_wc_graph, star_graph
from repro.parallel import get_pool, shutdown_pool
from repro.rrset.batch import supports_batched
from repro.rrset.rrgen import RRCollection
from repro.utility.model import UtilityModel
from repro.utility.noise import GaussianNoise, ZeroNoise
from repro.utility.price import AdditivePrice
from repro.utility.valuation import AdditiveValuation, TableValuation

GAP = ComICModel(0.5, 0.84, 0.5, 0.84)


def _ctx(backend, rng):
    """Shorthand: an EngineContext with an explicit backend and stream."""
    return EngineContext.create(backend=backend, rng=rng)


@pytest.fixture
def wc400():
    return random_wc_graph(400, avg_degree=6, seed=7)


@pytest.fixture
def two_item_model():
    return UtilityModel(
        TableValuation(2, {0b01: 3.0, 0b10: 4.0, 0b11: 8.0}),
        AdditivePrice([3.0, 4.0]),
        GaussianNoise([1.0, 1.0]),
    )


class TestBatchIC:
    def test_statistical_equivalence(self, wc400):
        seeds = [0, 5, 10, 17]
        active = batch_simulate_ic(
            wc400, seeds, 4000, np.random.default_rng(1)
        )
        batched = active.sum(axis=1).mean()
        sequential = estimate_spread(
            wc400, seeds, 4000, np.random.default_rng(2)
        )
        # Spread std is a few nodes; 4000 worlds puts 5 sigma well under 1.
        assert batched == pytest.approx(sequential, abs=0.75)

    def test_deterministic_line(self):
        active = batch_simulate_ic(
            line_graph(10, 1.0), [0], 5, np.random.default_rng(0)
        )
        assert active.shape == (5, 10)
        assert active.all()

    def test_seeds_always_active_and_deduped(self, wc400):
        active = batch_simulate_ic(
            wc400, [3, 3, 9], 7, np.random.default_rng(0)
        )
        assert active[:, 3].all()
        assert active[:, 9].all()

    def test_empty_cases(self, wc400):
        assert batch_simulate_ic(
            wc400, [], 4, np.random.default_rng(0)
        ).sum() == 0
        assert batch_simulate_ic(
            wc400, [1], 0, np.random.default_rng(0)
        ).shape == (0, 400)

    def test_seed_out_of_range(self, wc400):
        with pytest.raises(IndexError):
            batch_simulate_ic(wc400, [400], 2, np.random.default_rng(0))


class TestBatchComIC:
    def test_statistical_equivalence(self, wc400):
        result = batch_simulate_comic(
            wc400, GAP, [0, 5, 10, 17], [3, 11], 4000,
            np.random.default_rng(3),
        )
        batched = result.adopter_counts(0).mean()
        rng = np.random.default_rng(4)
        total = 0
        for _ in range(4000):
            total += len(
                simulate_comic(wc400, GAP, [0, 5, 10, 17], [3, 11], rng)
                .adopted_a
            )
        assert batched == pytest.approx(total / 4000, abs=0.6)

    def test_deterministic_degenerate_gaps(self):
        """q = 1 everywhere on a probability-1 line: item A floods, item B
        stays at its seed (node 9 has no out-edges)."""
        model = ComICModel(1.0, 1.0, 1.0, 1.0)
        result = batch_simulate_comic(
            line_graph(10, 1.0), model, [0], [9], 3, np.random.default_rng(0)
        )
        assert result.adopted_a.all()
        assert result.adopted_b[:, 9].all()
        assert result.adopted_b[:, :9].sum() == 0

    def test_reconsideration_boost(self):
        """Seeding the complement must raise adoption (the q(A|B) boost),
        matching the sequential reconsideration semantics."""
        model = ComICModel(0.2, 0.9, 1.0, 1.0)
        graph = star_graph(50, probability=1.0)
        alone = batch_simulate_comic(
            graph, model, [0], [], 3000, np.random.default_rng(1)
        ).adopter_counts(0).mean()
        boosted = batch_simulate_comic(
            graph, model, [0], [0], 3000, np.random.default_rng(1)
        ).adopter_counts(0).mean()
        assert boosted > 2.0 * alone
        # Analytic means: 0.2 * (1 + 49 * 0.2) and 0.9 * (1 + 49 * 0.9).
        assert alone == pytest.approx(0.2 * (1 + 49 * 0.2), rel=0.15)
        assert boosted == pytest.approx(0.9 * (1 + 49 * 0.9), rel=0.05)

    def test_competitive_parameterization_rejected(self, wc400):
        with pytest.raises(ValueError):
            batch_simulate_comic(
                wc400, ComICModel(0.5, 0.2, 0.5, 0.5), [0], [], 2,
                np.random.default_rng(0),
            )

    def test_estimate_backend_dispatch(self, wc400):
        sequential = estimate_comic_spread(
            wc400, GAP, [1, 2], [3], item=0, num_samples=800,
            ctx=_ctx("sequential", np.random.default_rng(5)),
        )
        batched = estimate_comic_spread(
            wc400, GAP, [1, 2], [3], item=0, num_samples=800,
            ctx=_ctx("batched", np.random.default_rng(6)),
        )
        assert batched == pytest.approx(sequential, rel=0.25, abs=0.5)


class TestEstimateComicSpreadSeeds:
    """The integer-seed bugfix: reproducible runs from the CLI."""

    def test_integer_seed_reproducible_both_backends(self, wc400):
        for backend in ("sequential", "batched"):
            runs = [
                estimate_comic_spread(
                    wc400, GAP, [1, 2], [3], item=0, num_samples=40,
                    ctx=_ctx(backend, 42),
                )
                for _ in range(2)
            ]
            assert runs[0] == runs[1]

    def test_different_seeds_differ(self, wc400):
        a = estimate_comic_spread(
            wc400, GAP, [1, 2], [3], item=0, num_samples=40, ctx=_ctx("sequential", 42),
        )
        b = estimate_comic_spread(
            wc400, GAP, [1, 2], [3], item=0, num_samples=40, ctx=_ctx("sequential", 43),
        )
        assert a != b

    def test_sequential_uses_per_world_child_streams(self, wc400):
        """World i depends only on (seed, i): recompute by hand."""
        estimate = estimate_comic_spread(
            wc400, GAP, [1, 2], [3], item=0, num_samples=10, ctx=_ctx("sequential", 7),
        )
        total = 0
        for child in np.random.SeedSequence(7).spawn(10):
            world_rng = np.random.default_rng(child)
            total += len(
                simulate_comic(wc400, GAP, [1, 2], [3], world_rng).adopted_a
            )
        assert estimate == total / 10


class TestBatchUIC:
    def test_welfare_statistical_equivalence(self, wc400, two_item_model):
        alloc = [(v, i) for v in range(8) for i in (0, 1)]
        batched = batch_simulate_uic(
            wc400, two_item_model, alloc, 4000, np.random.default_rng(11)
        ).welfare
        rng = np.random.default_rng(12)
        sequential = np.array(
            [
                simulate_uic(wc400, two_item_model, alloc, rng).welfare
                for _ in range(4000)
            ]
        )
        # 5 sigma of the difference of two 4000-sample means.
        sigma = np.hypot(
            batched.std() / np.sqrt(4000), sequential.std() / np.sqrt(4000)
        )
        assert abs(batched.mean() - sequential.mean()) < 5.0 * sigma

    def test_adoption_marginals_match(self, two_item_model):
        graph = random_wc_graph(60, avg_degree=4, seed=2)
        alloc = [(0, 0), (1, 1), (2, 0), (2, 1)]
        batched = batch_simulate_uic(
            graph, two_item_model, alloc, 20000, np.random.default_rng(21)
        )
        bat_marginal = (batched.adopted > 0).mean(axis=0)
        rng = np.random.default_rng(22)
        seq_marginal = np.zeros(60)
        for _ in range(20000):
            for v in simulate_uic(graph, two_item_model, alloc, rng).adopted:
                seq_marginal[v] += 1
        seq_marginal /= 20000
        # Binomial 5 sigma at p ~ 0.5, N = 20k is ~0.018.
        assert np.abs(bat_marginal - seq_marginal).max() < 0.02

    def test_deterministic_world_exact_match(self):
        model = UtilityModel(
            TableValuation(2, {0b01: 4.0, 0b10: 2.0, 0b11: 9.0}),
            AdditivePrice([3.0, 3.0]),
            ZeroNoise(2),
        )
        graph = line_graph(10, 1.0)
        batched = batch_simulate_uic(
            graph, model, [(0, 0), (0, 1)], 4, np.random.default_rng(0)
        )
        sequential = simulate_uic(
            graph, model, [(0, 0), (0, 1)], np.random.default_rng(0)
        )
        assert np.allclose(batched.welfare, sequential.welfare)
        masks = np.zeros(10, dtype=np.int64)
        for v, mask in sequential.adopted.items():
            masks[v] = mask
        assert (batched.adopted == masks[None, :]).all()

    def test_fixed_noise_world(self, two_item_model):
        graph = line_graph(6, 1.0)
        noise = np.array([0.5, -0.2])
        alloc = [(0, 0), (0, 1)]
        batched = batch_simulate_uic(
            graph, two_item_model, alloc, 3, np.random.default_rng(0),
            noise_world=noise,
        )
        sequential = simulate_uic(
            graph, two_item_model, alloc, np.random.default_rng(0),
            noise_world=noise,
        )
        assert np.allclose(batched.welfare, sequential.welfare)

    # (Backend statistical-equivalence sweeps for estimate_welfare /
    # estimate_adoption moved to tests/test_engine_context.py.)

    def test_item_universe_cap_falls_back(self):
        """> MAX_BATCH_ITEMS items: estimate_welfare routes to the
        sequential loop (same rng => identical values) and says so with a
        UserWarning instead of degrading silently."""
        k = MAX_BATCH_ITEMS + 1
        model = UtilityModel(
            AdditiveValuation([1.0] * k),
            AdditivePrice([0.5] * k),
            ZeroNoise(k),
        )
        assert not supports_batched_uic(model, None)
        graph = line_graph(5, 1.0)
        alloc = [(0, i) for i in range(k)]
        with pytest.warns(UserWarning, match="falling back to the sequential"):
            batched_knob = estimate_welfare(
                graph, model, alloc, num_samples=10,
                ctx=_ctx("batched", np.random.default_rng(9)),
            )
        sequential = estimate_welfare(
            graph, model, alloc, num_samples=10,
            ctx=_ctx("sequential", np.random.default_rng(9)),
        )
        assert batched_knob.mean == sequential.mean

    def test_item_cap_warning_on_adoption_estimator(self):
        k = MAX_BATCH_ITEMS + 1
        model = UtilityModel(
            AdditiveValuation([1.0] * k),
            AdditivePrice([0.5] * k),
            ZeroNoise(k),
        )
        graph = line_graph(4, 1.0)
        with pytest.warns(UserWarning, match="at most"):
            estimate_adoption(
                graph, model, [(0, 0)], num_samples=3,
                ctx=_ctx("batched", np.random.default_rng(1)),
            )

    def test_no_warning_within_item_cap(self, wc400, two_item_model):
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error", UserWarning)
            estimate_welfare(
                wc400, two_item_model, [(0, 0)], num_samples=3,
                ctx=_ctx("batched", np.random.default_rng(1)),
            )
            estimate_welfare(
                wc400, two_item_model, [(0, 0)], num_samples=3,
                ctx=_ctx("sequential", np.random.default_rng(1)),
            )

    def test_batch_simulate_uic_rejects_oversized_universe(self):
        k = MAX_BATCH_ITEMS + 1
        model = UtilityModel(
            AdditiveValuation([1.0] * k),
            AdditivePrice([0.5] * k),
            ZeroNoise(k),
        )
        with pytest.raises(ValueError):
            batch_simulate_uic(
                line_graph(3, 1.0), model, [(0, 0)], 2,
                np.random.default_rng(0),
            )


class TestDecisionTables:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_adopt_exhaustively(self, k):
        """decision[w, desire, adopted] == adopt(table_w, desire, adopted)
        over every valid pair of random utility tables."""
        rng = np.random.default_rng(100 + k)
        tables = rng.normal(0.0, 2.0, size=(20, 1 << k))
        tables[:, 0] = 0.0  # U(emptyset) = 0 by construction
        decision = _decision_tables(tables)
        for w in range(tables.shape[0]):
            for desire in range(1 << k):
                sub = desire
                while True:
                    expected = adopt(tables[w], desire, sub)
                    assert decision[w, desire, sub] == expected
                    if sub == 0:
                        break
                    sub = (sub - 1) & desire

    def test_tied_utilities_take_union(self):
        # U({1}) == U({2}) == U({1,2}) == 1: the union of tied maximizers.
        tables = np.array([[0.0, 1.0, 1.0, 1.0]])
        decision = _decision_tables(tables)
        assert decision[0, 0b11, 0] == 0b11


class TestBatchPersonalized:
    """The batched personalized-noise UIC path (per-(world, node) tables)."""

    def test_statistical_equivalence(self, two_item_model):
        from repro.diffusion.personalized import estimate_welfare_personalized

        graph = random_wc_graph(300, 6, seed=13)
        alloc = [(v, i) for v in range(8) for i in (0, 1)]
        seq_values = []
        rng = np.random.default_rng(1)
        from repro.diffusion.personalized import simulate_uic_personalized

        for _ in range(800):
            seq_values.append(
                simulate_uic_personalized(
                    graph, two_item_model, alloc, rng
                ).welfare
            )
        seq_values = np.asarray(seq_values)
        from repro.diffusion.batch_forward import (
            batch_simulate_uic_personalized,
        )

        bat_values = batch_simulate_uic_personalized(
            graph, two_item_model, alloc, 800, np.random.default_rng(2)
        )
        sigma = np.hypot(
            seq_values.std() / np.sqrt(seq_values.size),
            bat_values.std() / np.sqrt(bat_values.size),
        )
        assert abs(seq_values.mean() - bat_values.mean()) < 5.0 * sigma
        # And through the public estimator, which routes by backend.
        est = estimate_welfare_personalized(
            graph, two_item_model, alloc, num_samples=800,
            rng=np.random.default_rng(2),
        )
        assert est == pytest.approx(float(bat_values.mean()))

    def test_deterministic_zero_noise_matches_sequential(self):
        """Zero noise collapses personalization: both backends must agree
        exactly on a probability-1 line."""
        from repro.diffusion.personalized import estimate_welfare_personalized

        model = UtilityModel(
            TableValuation(2, {0b01: 3.0, 0b10: 4.0, 0b11: 8.0}),
            AdditivePrice([1.0, 1.0]),
            ZeroNoise(2),
        )
        graph = line_graph(6, 1.0)
        alloc = [(0, 0), (0, 1)]
        seq = estimate_welfare_personalized(
            graph, model, alloc, num_samples=4,
            ctx=_ctx("sequential", np.random.default_rng(3)),
        )
        bat = estimate_welfare_personalized(
            graph, model, alloc, num_samples=4,
            ctx=_ctx("batched", np.random.default_rng(4)),
        )
        assert seq == bat

    def test_empty_allocation_and_zero_worlds(self, two_item_model):
        from repro.diffusion.batch_forward import (
            batch_simulate_uic_personalized,
        )

        graph = line_graph(4, 1.0)
        assert (
            batch_simulate_uic_personalized(
                graph, two_item_model, [], 5, np.random.default_rng(0)
            )
            == 0.0
        ).all()
        assert batch_simulate_uic_personalized(
            graph, two_item_model, [(0, 0)], 0, np.random.default_rng(0)
        ).shape == (0,)

    def test_item_cap_warns_and_falls_back(self):
        from repro.diffusion.personalized import estimate_welfare_personalized

        k = MAX_BATCH_ITEMS + 1
        model = UtilityModel(
            AdditiveValuation([1.0] * k),
            AdditivePrice([0.5] * k),
            ZeroNoise(k),
        )
        graph = line_graph(3, 1.0)
        with pytest.warns(UserWarning, match="at most"):
            estimate_welfare_personalized(
                graph, model, [(0, 0)], num_samples=2,
                ctx=_ctx("batched", np.random.default_rng(0)),
            )


class TestLazyTriggerLog:
    """Lazy per-(world, node) trigger sampling on the forward UIC path."""

    def test_only_reached_pairs_sampled(self, two_item_model):
        """A cascade confined to a component must never draw trigger sets
        outside it — the memory contract of the lazy log."""
        from repro.diffusion.batch_forward import _LazyTriggerLog

        # Two disconnected probability-1 lines: 0->1->2, 3->4->5.
        graph = InfluenceGraph(
            6, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)]
        )
        result = batch_simulate_uic(
            graph, two_item_model, [(0, 0), (0, 1)], 8,
            np.random.default_rng(0),
            triggering=LinearThresholdTriggering(),
        )
        # Adoption spread down the seeded line only.
        assert (result.adopted[:, 3:] == 0).all()
        # Direct check on the log: sampling is confined to targeted nodes.
        csr = build_trigger_csr(graph, LinearThresholdTriggering())
        log = _LazyTriggerLog(2, 6, csr)
        rng = np.random.default_rng(1)
        w = np.array([0, 0], dtype=np.int64)
        u = np.array([0, 1], dtype=np.int64)
        v = np.array([1, 2], dtype=np.int64)
        log.live_mask(rng, w, u, v)
        assert log._sampled[0, [1, 2]].all()
        assert not log._sampled[0, [0, 3, 4, 5]].any()
        assert not log._sampled[1].any()

    def test_membership_fixed_across_rounds(self):
        """Re-querying a sampled pair re-reads the same draw (deferred
        decision): the live mask for identical queries never changes."""
        from repro.diffusion.batch_forward import _LazyTriggerLog

        graph = random_wc_graph(50, 4, seed=21)
        csr = build_trigger_csr(graph, LinearThresholdTriggering())
        log = _LazyTriggerLog(3, 50, csr)
        rng = np.random.default_rng(2)
        w = np.repeat(np.arange(3, dtype=np.int64), 50)
        v = np.tile(np.arange(50, dtype=np.int64), 3)
        # Query every (world, target) from a fixed pseudo-source set.
        u = (v + 1) % 50
        first = log.live_mask(rng, w, u, v)
        again = log.live_mask(rng, w, u, v)
        assert np.array_equal(first, again)

    def test_lt_mean_agrees_with_pre_sampled_world(self, two_item_model):
        """The lazy path must keep the LT welfare distribution (checked
        against the sequential oracle at high sample count)."""
        graph = random_wc_graph(150, 5, seed=17)
        alloc = [(v, v % 2) for v in range(6)]
        batched = estimate_welfare(
            graph, two_item_model, alloc, num_samples=2000,
            triggering="lt", ctx=_ctx("batched", np.random.default_rng(7)),
        )
        sequential = estimate_welfare(
            graph, two_item_model, alloc, num_samples=2000,
            triggering="lt",
            ctx=_ctx("sequential", np.random.default_rng(8)),
        )
        sigma = np.hypot(batched.stderr, sequential.stderr)
        assert abs(batched.mean - sequential.mean) < 5.0 * sigma


class TestForwardUnderTriggering:
    def test_lt_welfare_batched_vs_sequential(self, two_item_model):
        graph = random_wc_graph(300, 6, seed=9)
        alloc = [(v, i) for v in range(8) for i in (0, 1)]
        batched = estimate_welfare(
            graph, two_item_model, alloc, num_samples=1500,
            triggering="lt", ctx=_ctx("batched", np.random.default_rng(1)),
        )
        sequential = estimate_welfare(
            graph, two_item_model, alloc, num_samples=1500,
            triggering="lt",
            ctx=_ctx("sequential", np.random.default_rng(2)),
        )
        sigma = np.hypot(batched.stderr, sequential.stderr)
        assert abs(batched.mean - sequential.mean) < 5.0 * sigma

    def test_explicit_ic_triggering_matches_fast_path(self, two_item_model):
        graph = random_wc_graph(200, 5, seed=3)
        alloc = [(0, 0), (1, 1)]
        fast = estimate_welfare(
            graph, two_item_model, alloc, num_samples=1500,
            ctx=_ctx("batched", np.random.default_rng(5)),
        )
        explicit = estimate_welfare(
            graph, two_item_model, alloc, num_samples=1500,
            triggering=IndependentCascadeTriggering(),
            ctx=_ctx("batched", np.random.default_rng(6)),
        )
        sigma = np.hypot(fast.stderr, explicit.stderr)
        assert abs(fast.mean - explicit.mean) < 5.0 * sigma

    def test_attention_triggering_batched_forward(self, two_item_model):
        """A generic (neither IC nor LT) model runs batched forward."""
        graph = random_wc_graph(200, 5, seed=4)
        model = AttentionICTriggering(max_attention=2)
        assert supports_batched_uic(two_item_model, model)
        alloc = [(0, 0), (1, 1), (2, 0)]
        batched = estimate_welfare(
            graph, two_item_model, alloc, num_samples=1500,
            triggering=model,
            ctx=_ctx("batched", np.random.default_rng(7)),
        )
        sequential = estimate_welfare(
            graph, two_item_model, alloc, num_samples=1500,
            triggering=model,
            ctx=_ctx("sequential", np.random.default_rng(8)),
        )
        sigma = np.hypot(batched.stderr, sequential.stderr)
        assert abs(batched.mean - sequential.mean) < 5.0 * sigma


    # Node 2's in-weights (0.5 from each seed) sum to 1, so under LT it
    # always picks an adopting seed; under IC it misses both w.p. 1/4.
    @pytest.mark.parametrize("backend", ["sequential", "batched", "parallel"])
    def test_adoption_honours_the_context_triggering(
        self, backend, deterministic_two_item_model
    ):
        graph = InfluenceGraph(3, [(0, 2, 0.5), (1, 2, 0.5)])
        get_pool(0)
        try:
            est = estimate_adoption(
                graph, deterministic_two_item_model, [(0, 0), (1, 0)],
                num_samples=64, item=0,
                ctx=EngineContext.create(
                    backend=backend, seed=3, triggering="lt"
                ),
            )
        finally:
            shutdown_pool()
        assert est.mean == pytest.approx(3.0)
        assert est.stderr == 0.0

    def test_uic_counts_sample_the_triggering_model(self, two_item_model):
        graph = random_wc_graph(200, 5, seed=12)
        alloc = [(v, v % 2) for v in range(6)]
        lt = LinearThresholdTriggering()
        counts = batch_uic_counts(
            graph, two_item_model, alloc, None, 30,
            np.random.default_rng(4), triggering=lt,
        )
        masks = batch_simulate_uic(
            graph, two_item_model, alloc, 30, np.random.default_rng(4),
            triggering=lt,
        )
        assert np.array_equal(counts, masks.adopter_counts(None))

    @pytest.mark.parametrize(
        "triggering",
        [LinearThresholdTriggering(), AttentionICTriggering(max_attention=2)],
        ids=["lt", "attention"],
    )
    def test_ic_only_estimators_reject_other_models(
        self, wc400, two_item_model, triggering
    ):
        name = type(triggering).__name__
        with pytest.raises(ValueError, match=name):
            estimate_comic_spread(
                wc400, GAP, [1], [2], item=0, num_samples=4,
                ctx=EngineContext.create(seed=1, triggering=triggering),
            )
        with pytest.raises(ValueError, match=name):
            estimate_welfare_personalized(
                wc400, two_item_model, [(0, 0)], num_samples=4,
                ctx=EngineContext.create(seed=1, triggering=triggering),
            )

    def test_ic_only_estimators_run_ic_triggering_as_ic(
        self, wc400, two_item_model
    ):
        def ctx(triggering):
            return EngineContext.create(seed=1, triggering=triggering)

        spreads = [
            estimate_comic_spread(
                wc400, GAP, [1], [2], item=0, num_samples=8, ctx=ctx(trig)
            )
            for trig in ("ic", None)
        ]
        assert spreads[0] == spreads[1]
        welfares = [
            estimate_welfare_personalized(
                wc400, two_item_model, [(0, 0)], num_samples=8,
                ctx=ctx(trig),
            )
            for trig in ("ic", None)
        ]
        assert welfares[0] == welfares[1]


class TestGenericTriggeringRRSets:
    def test_supports_batched_covers_distribution_models(self):
        """Regression pin: generic triggering models with an explicit
        distribution are batched, not sequential-fallback."""
        assert supports_batched(AttentionICTriggering(max_attention=3))
        assert supports_batched(LinearThresholdTriggering())
        assert supports_batched(IndependentCascadeTriggering())
        assert supports_batched(None)

        class OpaqueTrigger(TriggeringModel):
            def sample_trigger_set(self, graph, node, rng):
                return graph.in_neighbors(node)[:0]

        assert not supports_batched(OpaqueTrigger())

    def test_trigger_csr_marginals_match_distribution(self):
        graph = InfluenceGraph(
            3, [(0, 2, 0.3), (1, 2, 0.5)]
        )
        model = AttentionICTriggering(max_attention=2)
        csr = build_trigger_csr(graph, model)
        rng = np.random.default_rng(5)
        trials = 20000
        nodes = np.full(trials, 2, dtype=np.int64)
        members, degs = sample_trigger_members(csr, nodes, rng.random(trials))
        counts = np.bincount(members, minlength=3)
        # Marginal inclusion probabilities equal the edge probabilities.
        assert counts[0] / trials == pytest.approx(0.3, abs=0.02)
        assert counts[1] / trials == pytest.approx(0.5, abs=0.02)
        # Empty-set frequency equals (1 - 0.3) * (1 - 0.5).
        assert (degs == 0).mean() == pytest.approx(0.35, abs=0.02)

    def test_sequential_sampler_same_distribution(self):
        graph = InfluenceGraph(3, [(0, 2, 0.3), (1, 2, 0.5)])
        model = AttentionICTriggering(max_attention=2)
        rng = np.random.default_rng(6)
        counts = np.zeros(3)
        trials = 20000
        for _ in range(trials):
            for u in model.sample_trigger_set(graph, 2, rng):
                counts[int(u)] += 1
        assert counts[0] / trials == pytest.approx(0.3, abs=0.02)
        assert counts[1] / trials == pytest.approx(0.5, abs=0.02)

    def test_rr_collection_batched_vs_sequential(self):
        graph = random_wc_graph(300, avg_degree=5, seed=11)
        model = AttentionICTriggering(max_attention=3)
        count = 4000
        sequential = RRCollection(
            graph, triggering=model,
            ctx=_ctx("sequential", np.random.default_rng(1)),
        )
        sequential.generate(count)
        batched = RRCollection(
            graph, triggering=model,
            ctx=_ctx("batched", np.random.default_rng(2)),
        )
        batched.generate(count)
        assert batched.num_sets == sequential.num_sets == count
        assert batched.total_width == pytest.approx(
            sequential.total_width, rel=0.08
        )
        probe = list(range(0, 300, 15))
        assert batched.coverage_fraction(probe) == pytest.approx(
            sequential.coverage_fraction(probe), rel=0.1, abs=0.01
        )

    def test_all_empty_distribution_yields_root_only_sets(self):
        """A distribution model whose candidates are all empty-set mass
        (zero candidates everywhere) must sample batched without crashing:
        every RR set is its root alone."""

        class AlwaysEmpty(DistributionTriggering):
            def trigger_distribution(self, graph, node):
                return []

        model = AlwaysEmpty()
        assert supports_batched(model)
        graph = random_wc_graph(50, avg_degree=4, seed=1)
        collection = RRCollection(
            graph, triggering=model,
            ctx=_ctx("batched", np.random.default_rng(0)),
        )
        collection.generate(20)
        assert collection.num_sets == 20
        assert collection.total_width == 20  # roots only

    def test_distribution_validation(self):
        class BadDistribution(DistributionTriggering):
            def trigger_distribution(self, graph, node):
                return [(0.9, graph.in_neighbors(node)),
                        (0.4, graph.in_neighbors(node))]

        graph = InfluenceGraph(2, [(0, 1, 0.5)])
        with pytest.raises(ValueError):
            build_trigger_csr(graph, BadDistribution())


class TestForwardAdopterWorlds:
    def test_batched_returns_bitmap(self, wc400):
        worlds = _forward_adopter_worlds(
            wc400, GAP, 0, [0, 1, 2], 16,
            _ctx("batched", np.random.default_rng(1)),
        )
        assert isinstance(worlds, np.ndarray)
        assert worlds.shape == (16, 400)
        assert worlds.dtype == bool
        # Seeds of the fixed item adopt with probability q_a_empty > 0;
        # over 16 worlds some seed adoption must show up.
        assert worlds[:, [0, 1, 2]].any()

    def test_sequential_returns_sets(self, wc400):
        worlds = _forward_adopter_worlds(
            wc400, GAP, 0, [0, 1, 2], 4,
            _ctx("sequential", np.random.default_rng(1)),
        )
        assert isinstance(worlds, list)
        assert len(worlds) == 4
        assert all(isinstance(w, set) for w in worlds)

    def test_backends_agree_on_mean_world_size(self, wc400):
        sequential = _forward_adopter_worlds(
            wc400, GAP, 0, list(range(10)), 300,
            _ctx("sequential", np.random.default_rng(2)),
        )
        batched = _forward_adopter_worlds(
            wc400, GAP, 0, list(range(10)), 300,
            _ctx("batched", np.random.default_rng(3)),
        )
        seq_mean = np.mean([len(w) for w in sequential])
        bat_mean = batched.sum(axis=1).mean()
        assert bat_mean == pytest.approx(seq_mean, rel=0.15, abs=0.5)

    def test_gap_sampler_rejects_bitmap_on_sequential(self, wc400):
        sampler = _GapSampler(
            wc400, 0.5, 0.84, ctx=_ctx("sequential", np.random.default_rng(0))
        )
        with pytest.raises(ValueError):
            sampler.set_worlds(np.zeros((2, 400), dtype=bool))

    def test_gap_sampler_accepts_empty_bitmap(self, wc400):
        sampler = _GapSampler(
            wc400, 0.5, 0.84, ctx=_ctx("batched", np.random.default_rng(0))
        )
        sampler.set_worlds(np.zeros((0, 400), dtype=bool))
        members, lengths = sampler.sample(8)
        assert lengths.shape == (8,)


def _config6_instance(num_nodes, seed):
    """Config 6's five items (budgets 26/26/26/20/2) on a WC graph."""
    config, budgets = multi_item_config(6, 5, 100, seed=0)
    alloc = [(v, i) for i, b in enumerate(budgets) for v in range(b)]
    return random_wc_graph(num_nodes, 6, seed=seed), config.model, alloc


class TestForwardTotals:
    """The estimators keep per-world totals, never per-node state."""

    @pytest.mark.parametrize("estimator", [estimate_welfare, estimate_adoption])
    def test_peak_memory_below_one_int64_matrix(self, estimator):
        graph, model, alloc = _config6_instance(2000, 3)
        worlds = 8000
        tracemalloc.start()
        try:
            estimator(
                graph, model, alloc, num_samples=worlds,
                ctx=EngineContext.create(seed=1),
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < worlds * graph.num_nodes * 8

    # One world per chunk, then a few worlds per chunk with a short last
    # chunk: the totals must not depend on where the boundaries fall.
    @pytest.mark.parametrize("target_bytes", [1, 100_000])
    def test_uic_totals_equal_masks_across_chunks(
        self, monkeypatch, target_bytes
    ):
        monkeypatch.setattr(batch_forward, "_TARGET_BYTES", target_bytes)
        graph, model, alloc = _config6_instance(300, 7)
        welfare = batch_uic_welfare(
            graph, model, alloc, 42, EngineContext.create(seed=5).rng
        )
        masks = batch_simulate_uic(
            graph, model, alloc, 42, EngineContext.create(seed=5).rng
        )
        assert np.array_equal(welfare, masks.welfare)
        for item in [None, *range(model.num_items)]:
            counts = batch_uic_counts(
                graph, model, alloc, item, 42,
                EngineContext.create(seed=5).rng,
            )
            assert np.array_equal(counts, masks.adopter_counts(item))

    @pytest.mark.parametrize("target_bytes", [1, 100_000])
    def test_comic_counts_equal_bitmaps_across_chunks(
        self, monkeypatch, target_bytes
    ):
        monkeypatch.setattr(batch_forward, "_TARGET_BYTES", target_bytes)
        graph = random_wc_graph(300, 6, seed=7)
        for item in (0, 1):
            counts = batch_comic_counts(
                graph, GAP, range(10), range(5, 20), item, 42,
                EngineContext.create(seed=5).rng,
            )
            bitmaps = batch_simulate_comic(
                graph, GAP, range(10), range(5, 20), 42,
                EngineContext.create(seed=5).rng,
            )
            assert np.array_equal(counts, bitmaps.adopter_counts(item))


class TestEmptyGraph:
    @pytest.mark.parametrize("backend", ["sequential", "batched"])
    def test_estimators_return_zero(self, backend, two_item_model):
        graph = InfluenceGraph(0, [])
        welfare = estimate_welfare(
            graph, two_item_model, [], num_samples=3, ctx=_ctx(backend, 0)
        )
        assert welfare.mean == 0.0
        adoption = estimate_adoption(
            graph, two_item_model, [], num_samples=3, ctx=_ctx(backend, 0)
        )
        assert adoption.mean == 0.0
        assert estimate_welfare_personalized(
            graph, two_item_model, [], num_samples=3, ctx=_ctx(backend, 0)
        ) == 0.0
        assert estimate_comic_spread(
            graph, GAP, [], [], item=0, num_samples=3, ctx=_ctx(backend, 0)
        ) == 0.0


class TestItemValidation:
    """An unknown item fails before any world runs, on every backend."""

    @pytest.mark.parametrize("backend", ["sequential", "batched", "parallel"])
    def test_comic_spread_rejects_item_2(self, wc400, backend):
        with pytest.raises(ValueError, match="items 0 and 1"):
            estimate_comic_spread(
                wc400, GAP, [1], [2], item=2, num_samples=4,
                ctx=_ctx(backend, 0),
            )

    @pytest.mark.parametrize("backend", ["sequential", "batched", "parallel"])
    @pytest.mark.parametrize("item", [-1, 2])
    def test_adoption_rejects_item_outside_model(
        self, wc400, two_item_model, backend, item
    ):
        with pytest.raises(ValueError, match="outside the model"):
            estimate_adoption(
                wc400, two_item_model, [(0, 0)], num_samples=4, item=item,
                ctx=_ctx(backend, 0),
            )

    @pytest.mark.parametrize("item", [-1, 2])
    def test_uic_counts_reject_item_outside_model(
        self, wc400, two_item_model, item
    ):
        with pytest.raises(ValueError, match="outside the model"):
            batch_uic_counts(
                wc400, two_item_model, [(0, 0)], item, 4,
                np.random.default_rng(0),
            )


#: Every forward estimator as ``run(graph, uic_model, ctx)``.
_ESTIMATORS = {
    "welfare": lambda graph, model, ctx: estimate_welfare(
        graph, model, [(0, 0)], num_samples=4, ctx=ctx
    ),
    "adoption": lambda graph, model, ctx: estimate_adoption(
        graph, model, [(0, 0)], num_samples=4, ctx=ctx
    ),
    "comic_spread": lambda graph, model, ctx: estimate_comic_spread(
        graph, GAP, [0], [1], item=0, num_samples=4, ctx=ctx
    ),
    "welfare_personalized": lambda graph, model, ctx: (
        estimate_welfare_personalized(
            graph, model, [(0, 0)], num_samples=4, ctx=ctx
        )
    ),
}


class TestFallbackWarningsNameTheCaller:
    """A fallback warning points at the line that called the estimator."""

    @pytest.mark.parametrize("name", sorted(_ESTIMATORS))
    def test_lineage_fallback(self, wc400, two_item_model, name):
        ctx = _ctx("parallel", np.random.default_rng(0))
        with pytest.warns(UserWarning, match="no integer-seed lineage") as got:
            _ESTIMATORS[name](wc400, two_item_model, ctx)
        assert [w.filename for w in got] == [__file__]

    @pytest.mark.parametrize(
        "name", ["adoption", "welfare", "welfare_personalized"]
    )
    def test_item_cap_fallback(self, name):
        k = MAX_BATCH_ITEMS + 1
        model = UtilityModel(
            AdditiveValuation([1.0] * k),
            AdditivePrice([0.5] * k),
            ZeroNoise(k),
        )
        ctx = _ctx("batched", np.random.default_rng(1))
        with pytest.warns(UserWarning, match="at most") as got:
            _ESTIMATORS[name](line_graph(4, 1.0), model, ctx)
        assert [w.filename for w in got] == [__file__]
