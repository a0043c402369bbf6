"""Tests for the unified :class:`repro.engine.EngineContext`.

Four contracts (DESIGN.md §5):

* **Construction semantics** — backend resolved exactly once (explicit >
  ``$REPRO_RR_BACKEND`` > batched) with errors that name the valid
  backends and, for environment typos, the offending variable; integer
  seeds establish a ``SeedSequence`` lineage whose stream equals the
  historical ``default_rng(seed)``.
* **Legacy-kwarg removal** — no public entry point takes a ``backend=``
  (or, for the store builders, ``seed=``) keyword: passing one is
  Python's own ``TypeError``.  Plain ``rng=`` remains first-class, and
  ``ensure_context`` rejects two sources of one piece of state.
* **Triggering threading** — ``RRCollection`` resolves triggering names
  like every entry point, and the Com-IC baselines refuse a non-IC
  context before any sampling.
* **Integer-seed uniformity** — ``estimate_welfare``,
  ``estimate_adoption`` and ``estimate_welfare_personalized`` accept plain
  integer seeds (via ``SeedSequence`` children on the sequential engine),
  matching the earlier fix to ``estimate_comic_spread``.
* **Cross-backend parity** — one parametrized sweep asserting
  sequential-vs-batched statistical equivalence through every public
  entry point that takes a context (PRIMA, IMM, RR-SIM+, RR-CIM, the
  welfare/adoption/Com-IC estimators), superseding the
  per-module copies that used to live in ``test_comic_gap_engine`` and
  ``test_batch_forward``.
"""

import warnings

import numpy as np
import pytest

from repro.baselines._comic_common import comic_rr_selection
from repro.baselines.rr_cim import rr_cim
from repro.baselines.rr_sim import rr_sim_plus
from repro.diffusion.comic import ComICModel, estimate_comic_spread
from repro.diffusion.personalized import estimate_welfare_personalized
from repro.diffusion.welfare import estimate_adoption, estimate_welfare
from repro.diffusion.triggering import LinearThresholdTriggering
from repro.engine import (
    BACKEND_ENV,
    BACKENDS,
    EngineContext,
    WorldCursor,
    resolve_backend,
)
from repro.experiments._two_item import run_two_item_experiment
from repro.experiments.fig4_welfare import run_fig4
from repro.experiments.fig5_runtime import run_fig5
from repro.experiments.fig7_multi_item import run_fig7
from repro.graph.generators import random_wc_graph, star_graph
from repro.rrset.imm import imm
from repro.rrset.prima import prima
from repro.rrset.rrgen import RRCollection
from repro.store import build_comic_store, build_sharded, build_store
from repro.utility.model import UtilityModel
from repro.utility.noise import GaussianNoise
from repro.utility.price import AdditivePrice
from repro.utility.valuation import TableValuation

GAP = ComICModel(0.1, 0.4, 0.1, 0.4)


@pytest.fixture(scope="module")
def wc300():
    return random_wc_graph(300, avg_degree=6, seed=23)


@pytest.fixture(scope="module")
def spread_estimator(wc300):
    """One shared, independent RR collection scoring every selector."""
    est = RRCollection(
        wc300,
        ctx=EngineContext.create(
            backend="batched", rng=np.random.default_rng(999)
        ),
    )
    est.extend_to(4000)
    return est


@pytest.fixture(scope="module")
def two_item_model():
    return UtilityModel(
        TableValuation(2, {0b01: 3.0, 0b10: 4.0, 0b11: 8.0}),
        AdditivePrice([3.0, 4.0]),
        GaussianNoise([1.0, 1.0]),
    )


class TestContextConstruction:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        ctx = EngineContext.create()
        assert ctx.backend == "batched"
        assert not ctx.has_lineage
        assert ctx.cursor.position == 0
        # Default stream is the historical default_rng(0), byte for byte.
        assert np.array_equal(
            ctx.rng.random(4), np.random.default_rng(0).random(4)
        )

    def test_env_beats_default_and_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "sequential")
        assert EngineContext.create().backend == "sequential"
        assert EngineContext.create(backend="batched").backend == "batched"

    def test_integer_seed_establishes_lineage(self):
        ctx = EngineContext.create(seed=7)
        assert ctx.has_lineage
        assert np.array_equal(
            ctx.rng.random(4), np.random.default_rng(7).random(4)
        )
        children = ctx.spawn_generators(3)
        expected = [
            np.random.default_rng(c)
            for c in np.random.SeedSequence(7).spawn(3)
        ]
        for child, ref in zip(children, expected):
            assert np.array_equal(child.random(4), ref.random(4))

    def test_integer_rng_is_a_seed(self):
        ctx = EngineContext.create(rng=11)
        assert ctx.has_lineage
        assert ctx.seed_seq.entropy == 11

    def test_generator_contexts_cannot_spawn(self):
        ctx = EngineContext.create(rng=np.random.default_rng(0))
        assert not ctx.has_lineage
        with pytest.raises(ValueError, match="lineage"):
            ctx.spawn_generators(2)

    def test_seed_and_rng_mutually_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            EngineContext.create(seed=1, rng=np.random.default_rng(0))

    def test_with_stream_keeps_policy(self):
        base = EngineContext.create(backend="sequential", triggering="lt")
        derived = base.with_stream(seed=5)
        assert derived.backend == "sequential"
        assert derived.triggering is base.triggering
        assert derived.cursor is not base.cursor
        assert np.array_equal(
            derived.rng.random(3), np.random.default_rng(5).random(3)
        )

    def test_world_cursor(self):
        cursor = WorldCursor(10)
        assert cursor.advance(5) == 10
        assert cursor.position == 15
        with pytest.raises(ValueError):
            cursor.advance(-1)
        ctx = EngineContext.create(world_cursor=42)
        assert ctx.cursor.position == 42


class TestBackendErrors:
    def test_unknown_explicit_backend_names_valid_ones(self):
        with pytest.raises(ValueError) as err:
            resolve_backend("vectorized")
        message = str(err.value)
        assert "vectorized" in message
        for name in BACKENDS:
            assert name in message

    def test_env_typo_names_variable_and_value(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "batchd")
        with pytest.raises(ValueError) as err:
            resolve_backend(None)
        message = str(err.value)
        assert BACKEND_ENV in message
        assert "batchd" in message
        for name in BACKENDS:
            assert name in message

    def test_env_typo_fails_at_context_construction(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "bogus")
        with pytest.raises(ValueError, match=BACKEND_ENV):
            EngineContext.create()

    def test_collection_rejects_bad_backend_at_construction(self):
        with pytest.raises(ValueError, match="valid backends"):
            EngineContext.create(
                backend="bogus", rng=np.random.default_rng(0)
            )


#: Entry points that once took a ``backend=`` keyword (the store builders
#: also ``seed=``), with their count of required positional arguments.
#: The calls fail while binding arguments, so placeholders never reach a
#: body.
REMOVED_KEYWORDS = [
    (fn, nargs, keyword)
    for fn, nargs, keywords in [
        (prima, 2, ("backend",)),
        (imm, 2, ("backend",)),
        (estimate_welfare, 3, ("backend",)),
        (estimate_adoption, 3, ("backend",)),
        (estimate_comic_spread, 5, ("backend",)),
        (estimate_welfare_personalized, 3, ("backend",)),
        (comic_rr_selection, 7, ("backend",)),
        (rr_sim_plus, 3, ("backend",)),
        (rr_cim, 3, ("backend",)),
        (run_fig4, 1, ("backend",)),
        (run_fig5, 0, ("backend",)),
        (run_fig7, 1, ("backend",)),
        (run_two_item_experiment, 1, ("backend",)),
        (build_store, 2, ("seed", "backend")),
        (build_sharded, 2, ("seed", "backend")),
        (build_comic_store, 3, ("seed", "backend")),
    ]
    for keyword in keywords
]


class TestLegacyKwargRemoval:
    @pytest.mark.parametrize(
        ("fn", "nargs", "keyword"),
        REMOVED_KEYWORDS,
        ids=[f"{fn.__name__}-{kw}" for fn, _, kw in REMOVED_KEYWORDS],
    )
    def test_removed_keyword_raises(self, fn, nargs, keyword):
        value = 3 if keyword == "seed" else "batched"
        with pytest.raises(
            TypeError, match=f"unexpected keyword argument '{keyword}'"
        ):
            fn(*[None] * nargs, **{keyword: value})

    def test_ctx_plus_rng_is_an_error(self, wc300):
        ctx = EngineContext.create()
        with pytest.raises(TypeError, match="not both"):
            imm(wc300, 2, rng=np.random.default_rng(0), ctx=ctx)

    def test_conflicting_triggering_sources_error(self, wc300):
        ctx = EngineContext.create(triggering="ic")
        with pytest.raises(TypeError, match="triggering"):
            prima(wc300, [2], triggering="lt", ctx=ctx)

    def test_plain_rng_stays_first_class(self, wc300):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            imm(wc300, 2, rng=np.random.default_rng(0))


class TestTriggeringThreading:
    def test_collection_resolves_triggering_name(self, wc300):
        by_name = RRCollection(
            wc300, np.random.default_rng(4), triggering="lt"
        )
        by_model = RRCollection(
            wc300, np.random.default_rng(4),
            triggering=LinearThresholdTriggering(),
        )
        by_name.generate(300)
        by_model.generate(300)
        for got, expected in zip(
            by_name.flat_arrays(), by_model.flat_arrays()
        ):
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize(
        "name", ["comic_rr_selection", "rr_sim_plus", "rr_cim"]
    )
    def test_comic_baselines_reject_non_ic_context(self, wc300, name):
        # Com-IC's forward worlds and GAP sets are IC's; an LT context
        # must fail before anything draws from its stream.
        ctx = EngineContext.create(seed=1, triggering="lt")
        before = ctx.rng.bit_generator.state
        runners = {
            "comic_rr_selection": lambda: comic_rr_selection(
                wc300, GAP, 0, (0, 1), 2, 0.5, 1.0, ctx=ctx
            ),
            "rr_sim_plus": lambda: rr_sim_plus(wc300, GAP, (2, 2), ctx=ctx),
            "rr_cim": lambda: rr_cim(wc300, GAP, (2, 2), ctx=ctx),
        }
        with pytest.raises(ValueError, match=f"{name} simulates IC"):
            runners[name]()
        assert ctx.rng.bit_generator.state == before


class TestIntegerSeedUniformity:
    """Satellite: integer seeds via SeedSequence children, all estimators."""

    ALLOC = [(0, 0), (1, 1), (2, 0)]

    def _children_reference(self, graph, model, seed, num_samples):
        from repro.diffusion.uic import simulate_uic

        values = []
        for child in np.random.SeedSequence(seed).spawn(num_samples):
            rng = np.random.default_rng(child)
            values.append(
                simulate_uic(graph, model, self.ALLOC, rng).welfare
            )
        return values

    def test_estimate_welfare_integer_seed_sequential(
        self, wc300, two_item_model
    ):
        est = estimate_welfare(
            wc300, two_item_model, self.ALLOC, num_samples=6,
            ctx=EngineContext.create(backend="sequential", seed=123),
        )
        reference = self._children_reference(wc300, two_item_model, 123, 6)
        assert est.mean == pytest.approx(float(np.mean(reference)))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_integer_seed_reproducible_everywhere(
        self, wc300, two_item_model, backend
    ):
        def ctx():
            return EngineContext.create(backend=backend, seed=77)

        for estimator in (estimate_welfare, estimate_adoption):
            a = estimator(
                wc300, two_item_model, self.ALLOC, num_samples=8, ctx=ctx()
            )
            b = estimator(
                wc300, two_item_model, self.ALLOC, num_samples=8, ctx=ctx()
            )
            assert a.mean == b.mean
        a = estimate_welfare_personalized(
            wc300, two_item_model, self.ALLOC, num_samples=8, ctx=ctx()
        )
        b = estimate_welfare_personalized(
            wc300, two_item_model, self.ALLOC, num_samples=8, ctx=ctx()
        )
        assert a == b

    def test_estimate_adoption_integer_seed_spawns_children(
        self, wc300, two_item_model
    ):
        from repro.diffusion.uic import simulate_uic

        est = estimate_adoption(
            wc300, two_item_model, self.ALLOC, num_samples=5,
            ctx=EngineContext.create(backend="sequential", seed=9),
        )
        totals = []
        for child in np.random.SeedSequence(9).spawn(5):
            rng = np.random.default_rng(child)
            result = simulate_uic(wc300, two_item_model, self.ALLOC, rng)
            totals.append(result.total_adoptions())
        assert est.mean == pytest.approx(float(np.mean(totals)))

    def test_personalized_integer_seed_spawns_children(
        self, wc300, two_item_model
    ):
        from repro.diffusion.personalized import simulate_uic_personalized

        est = estimate_welfare_personalized(
            wc300, two_item_model, self.ALLOC, num_samples=5,
            ctx=EngineContext.create(backend="sequential", seed=4),
        )
        totals = []
        for child in np.random.SeedSequence(4).spawn(5):
            rng = np.random.default_rng(child)
            totals.append(
                simulate_uic_personalized(
                    wc300, two_item_model, self.ALLOC, rng
                ).welfare
            )
        assert est == pytest.approx(float(np.mean(totals)))


#: (runner, relative quality tolerance).
SELECTORS = {
    "prima": (lambda g, ctx: prima(g, [5, 3], ctx=ctx).seeds, 0.1),
    "imm": (lambda g, ctx: imm(g, 5, ctx=ctx).seeds, 0.1),
}


class TestCrossBackendParity:
    """The one sweep: sequential vs batched through every entry point."""

    @pytest.mark.parametrize("name", sorted(SELECTORS))
    def test_selector_quality_parity(self, name, wc300, spread_estimator):
        runner, tolerance = SELECTORS[name]
        seeds = {}
        for backend in BACKENDS:
            ctx = EngineContext.create(backend=backend, seed=31)
            seeds[backend] = runner(wc300, ctx)
            assert len(seeds[backend]) == 5
        spreads = {
            backend: 300 * spread_estimator.coverage_fraction(list(chosen))
            for backend, chosen in seeds.items()
        }
        # Independent streams select different seeds; both must land at
        # near-identical quality on the shared estimator.
        assert spreads["batched"] == pytest.approx(
            spreads["sequential"], rel=tolerance
        )

    @pytest.mark.parametrize(("name", "func"), [
        ("rr_sim_plus", rr_sim_plus),
        ("rr_cim", rr_cim),
    ])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_comic_baselines_pick_the_hub(self, name, func, backend):
        g = star_graph(40, probability=0.8)
        result = func(
            g, GAP, (1, 1),
            num_forward_worlds=3,
            ctx=EngineContext.create(backend=backend, seed=2),
        )
        assert result.seeds_selected_item == (0,)

    def test_comic_baseline_sampling_scale_parity(self):
        g = star_graph(40, probability=0.8)
        counts = {}
        for backend in BACKENDS:
            counts[backend] = rr_sim_plus(
                g, GAP, (2, 2),
                num_forward_worlds=3,
                ctx=EngineContext.create(backend=backend, seed=11),
            ).num_rr_sets
        ratio = counts["batched"] / counts["sequential"]
        assert 0.5 < ratio < 2.0

    def test_estimate_welfare_parity(self, wc300, two_item_model):
        alloc = [(v, i) for v in range(8) for i in (0, 1)]
        results = {}
        for backend, seed in (("batched", 1), ("sequential", 2)):
            results[backend] = estimate_welfare(
                wc300, two_item_model, alloc, num_samples=1500,
                ctx=EngineContext.create(backend=backend, seed=seed),
            )
        sigma = np.hypot(
            results["batched"].stderr, results["sequential"].stderr
        )
        assert abs(
            results["batched"].mean - results["sequential"].mean
        ) < 5.0 * sigma

    def test_estimate_adoption_parity(self, wc300, two_item_model):
        alloc = [(v, i) for v in range(8) for i in (0, 1)]
        results = {}
        for backend, seed in (("batched", 3), ("sequential", 4)):
            results[backend] = estimate_adoption(
                wc300, two_item_model, alloc, num_samples=1500,
                ctx=EngineContext.create(backend=backend, seed=seed),
            )
        sigma = np.hypot(
            results["batched"].stderr, results["sequential"].stderr
        )
        assert abs(
            results["batched"].mean - results["sequential"].mean
        ) < 5.0 * sigma

    def test_estimate_comic_spread_parity(self, wc300):
        seeds_a = list(range(5))
        seeds_b = list(range(5, 10))
        values = {
            backend: estimate_comic_spread(
                wc300, GAP, seeds_a, seeds_b, item=0, num_samples=600,
                ctx=EngineContext.create(backend=backend, seed=8),
            )
            for backend in BACKENDS
        }
        assert values["batched"] == pytest.approx(
            values["sequential"], rel=0.2, abs=1.0
        )

    def test_personalized_parity(self, wc300, two_item_model):
        alloc = [(v, i) for v in range(6) for i in (0, 1)]
        values = {
            backend: estimate_welfare_personalized(
                wc300, two_item_model, alloc, num_samples=400,
                ctx=EngineContext.create(backend=backend, seed=6),
            )
            for backend in BACKENDS
        }
        assert values["batched"] == pytest.approx(
            values["sequential"], rel=0.25, abs=2.0
        )


class TestContextThreading:
    """One context, many layers: the drift-prevention contract."""

    def test_shared_cursor_survives_comic_run(self):
        from repro.baselines._comic_common import comic_rr_sketch
        from repro.rrset.imm import imm as imm_func

        g = star_graph(30, probability=0.7)
        ctx = EngineContext.create(backend="batched", seed=5)
        fixed = imm_func(g, 2, ctx=ctx).seeds
        assert ctx.cursor.position == 0  # IMM does not touch the cursor
        state = comic_rr_sketch(
            g, GAP, 0, fixed, 2, 0.5, 1.0, ctx, 3, False
        )
        assert ctx.cursor.position == state.world_cursor
        assert state.world_cursor == state.theta + state.kpt_sets

    def test_env_read_happens_once_at_construction(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "sequential")
        ctx = EngineContext.create()
        monkeypatch.setenv(BACKEND_ENV, "batched")
        g = star_graph(10, probability=0.5)
        collection = RRCollection(g, ctx=ctx)
        assert collection.backend == "sequential"
