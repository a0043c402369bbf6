"""Tests for the batched width-aware KPT estimation + GAP-aware engine.

Covers the layers added on top of the PR-1 batched RR engine:

* vectorized per-set widths (``rr_set_widths``) against the per-set
  reference sum, including empty GAP sets;
* the batched GAP-aware sampler: determinism, root-coin empties, and
  statistical equivalence with the sequential ``_gap_rr_set`` BFS;
* the ``_GapSampler`` forward-world cursor: monotone across calls (the
  θ phase continues from the KPT phase's offset — bugfix pinned here);
* the coverage-fraction convention: empty RR sets stay in the θ
  denominator (unbiased adoption estimator);
* golden sequential RR-SIM+/RR-CIM runs (seed tuples + ``num_rr_sets``),
  mirroring the PRIMA goldens of ``test_rrset_engine.py``;
* batched KPT estimation (the Com-IC baselines' TIM phase) agreeing with
  the sequential estimate;
* singleton-graph regressions: ``imm``/``prima`` on a 1-node graph with
  ``k >= 1`` must return ``(0,)``.
"""

import numpy as np
import pytest

from repro.baselines._comic_common import (
    _GapSampler,
    _estimate_kpt,
    _gap_rr_set,
    comic_rr_selection,
)
from repro.baselines.rr_cim import rr_cim
from repro.baselines.rr_sim import rr_sim_plus
from repro.diffusion.comic import ComICModel
from repro.engine import EngineContext
from repro.graph.digraph import InfluenceGraph
from repro.graph.generators import (
    random_wc_graph,
    star_graph,
    watts_strogatz_wc_graph,
)
from repro.rrset.batch import (
    batch_generate_gap_rr_sets,
    batch_generate_rr_sets,
    rr_set_widths,
)
from repro.rrset.imm import imm
from repro.rrset.prima import prima

GAP = ComICModel(0.5, 0.84, 0.5, 0.84)

# Golden outputs of the *sequential* GAP path (per-set Python BFS) after the
# world-pairing continuation fix, captured on random_wc_graph(120,
# avg_degree=5, seed=7) with rng seed 11 and num_forward_worlds=3: the
# sequential backend is the equivalence oracle the batched sampler is
# validated against, so its streams must stay byte-identical.
GOLDEN_RRSIM_SELECTED = (99, 118, 62, 114)
GOLDEN_RRSIM_FIXED = (99, 62, 118)
GOLDEN_RRSIM_NUM_RR_SETS = 94960
GOLDEN_RRCIM_SELECTED = (99, 62, 118)
GOLDEN_RRCIM_FIXED = (99, 62, 118, 63)
GOLDEN_RRCIM_NUM_RR_SETS = 80377


def _golden_graph():
    return random_wc_graph(120, avg_degree=5, seed=7)


class TestRRSetWidths:
    def test_matches_per_set_reference(self):
        g = random_wc_graph(200, avg_degree=6, seed=1)
        members, lengths = batch_generate_rr_sets(
            g, np.random.default_rng(0), 150
        )
        widths = rr_set_widths(g, members, lengths)
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        for i in range(150):
            rr = members[offsets[i] : offsets[i + 1]]
            assert widths[i] == sum(g.in_degree(int(v)) for v in rr)

    def test_empty_sets_have_zero_width(self):
        # np.add.reduceat would return the *next* segment's first element
        # for an empty set; the cumsum formulation must return 0.
        g = star_graph(10, probability=1.0, outward=True)
        members = np.array([0, 3, 0], dtype=np.int64)
        lengths = np.array([2, 0, 1, 0], dtype=np.int64)
        widths = rr_set_widths(g, members, lengths)
        hub_in_degree = g.in_degree(0)
        assert widths.tolist() == [
            hub_in_degree + g.in_degree(3),
            0,
            hub_in_degree,
            0,
        ]

    def test_no_sets(self):
        g = star_graph(5, probability=1.0)
        widths = rr_set_widths(
            g, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert widths.shape == (0,)


class TestBatchedGapSampler:
    def test_lengths_and_determinism(self):
        g = random_wc_graph(300, avg_degree=6, seed=3)
        boosted = np.zeros((2, 300), dtype=bool)
        boosted[1, ::3] = True
        world_ids = np.arange(400, dtype=np.int64) % 2
        m1, l1 = batch_generate_gap_rr_sets(
            g, np.random.default_rng(4), 400, 0.5, 0.9, boosted, world_ids
        )
        m2, l2 = batch_generate_gap_rr_sets(
            g, np.random.default_rng(4), 400, 0.5, 0.9, boosted, world_ids
        )
        assert np.array_equal(m1, m2)
        assert np.array_equal(l1, l2)
        assert l1.shape[0] == 400
        assert int(l1.sum()) == m1.shape[0]
        # Root coins fail with probability >= 0.1: some sets must be empty,
        # and with q_plain=0.5 roughly half of the plain-world roots die.
        assert (l1 == 0).any()

    def test_zero_q_all_empty_and_one_q_no_empty(self):
        g = random_wc_graph(100, avg_degree=4, seed=2)
        boosted = np.zeros((1, 100), dtype=bool)
        ids = np.zeros(50, dtype=np.int64)
        _, l_zero = batch_generate_gap_rr_sets(
            g, np.random.default_rng(0), 50, 0.0, 0.0, boosted, ids
        )
        assert (l_zero == 0).all()
        _, l_one = batch_generate_gap_rr_sets(
            g, np.random.default_rng(0), 50, 1.0, 1.0, boosted, ids
        )
        assert (l_one >= 1).all()

    def test_world_bitmap_selects_adoption_probability(self):
        # 1-node graph, q_plain=0, q_boosted=1: set j is nonempty iff the
        # paired world boosts node 0 — the bitmap fully determines output.
        g = InfluenceGraph(1, [])
        boosted = np.array([[True], [False]])
        world_ids = np.array([0, 1, 0, 1, 1, 0], dtype=np.int64)
        members, lengths = batch_generate_gap_rr_sets(
            g, np.random.default_rng(0), 6, 0.0, 1.0, boosted, world_ids
        )
        assert lengths.tolist() == [1, 0, 1, 0, 0, 1]
        assert members.tolist() == [0, 0, 0]

    def test_statistical_equivalence_with_sequential(self):
        """Batched and sequential GAP samplers draw the same distribution."""
        g = watts_strogatz_wc_graph(
            600, nearest_neighbors=6, rewire_probability=0.15, seed=9
        )
        world_rng = np.random.default_rng(77)
        worlds = [
            set(world_rng.choice(600, size=120, replace=False).tolist())
            for _ in range(4)
        ]
        count = 4000
        stats = {}
        for backend in ("sequential", "batched"):
            sampler = _GapSampler(
                g, np.random.default_rng(13), 0.55, 0.9, backend
            )
            sampler.set_worlds(worlds)
            members, lengths = sampler.sample(count)
            probe = np.arange(0, 600, 30)
            hit = np.zeros(count, dtype=bool)
            in_probe = np.isin(members, probe)
            set_ids = np.repeat(np.arange(count), lengths)
            hit[set_ids[in_probe]] = True
            stats[backend] = {
                "mean_len": lengths.mean(),
                "empty": (lengths == 0).mean(),
                "probe_cov": hit.mean(),
            }
        seq, bat = stats["sequential"], stats["batched"]
        assert bat["mean_len"] == pytest.approx(seq["mean_len"], rel=0.07)
        assert bat["empty"] == pytest.approx(seq["empty"], abs=0.025)
        assert bat["probe_cov"] == pytest.approx(
            seq["probe_cov"], rel=0.1, abs=0.01
        )


class TestWorldCursor:
    """The forward-world pairing cursor is monotone across phases."""

    @pytest.mark.parametrize("backend", ["sequential", "batched"])
    def test_cursor_continues_across_sample_calls(self, backend):
        # 1-node graph, q_plain=0 / q_boosted=1, worlds [{0}, {}]: set j is
        # nonempty iff world (cursor + j) % 2 == 0.  A second sample() call
        # must continue the alternation, not restart at world 0.
        g = InfluenceGraph(1, [])
        sampler = _GapSampler(g, np.random.default_rng(0), 0.0, 1.0, backend)
        sampler.set_worlds([{0}, set()])
        _, first = sampler.sample(3)
        assert first.tolist() == [1, 0, 1]
        assert sampler.used == 3
        _, second = sampler.sample(4)  # cursor 3 -> worlds 1,0,1,0
        assert second.tolist() == [0, 1, 0, 1]
        assert sampler.used == 7

    @pytest.mark.parametrize("backend", ["sequential", "batched"])
    def test_set_worlds_preserves_cursor(self, backend):
        # RR-CIM refreshes the world list between the KPT and θ phases; the
        # cursor must survive the refresh.
        g = InfluenceGraph(1, [])
        sampler = _GapSampler(g, np.random.default_rng(0), 0.0, 1.0, backend)
        sampler.set_worlds([{0}, set()])
        sampler.sample(3)
        sampler.set_worlds([{0}, set(), set()])  # now period 3, cursor 3
        _, lengths = sampler.sample(3)
        assert lengths.tolist() == [1, 0, 0]

    def test_sequential_sampler_matches_gap_rr_set_stream(self):
        """_GapSampler's sequential path is the historical loop, bit for bit."""
        g = random_wc_graph(150, avg_degree=5, seed=4)
        worlds = [set(range(0, 150, 4)), set(range(1, 150, 7))]
        sampler = _GapSampler(
            g, np.random.default_rng(21), 0.6, 0.9, "sequential"
        )
        sampler.set_worlds(worlds)
        members, lengths = sampler.sample(40)
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        rng = np.random.default_rng(21)
        for j in range(40):
            expected = _gap_rr_set(g, rng, 0.6, 0.9, worlds[j % 2])
            got = members[offsets[j] : offsets[j + 1]]
            assert np.array_equal(got, expected)


class TestCoverageFractionConvention:
    """Empty RR sets stay in the θ denominator (unbiased σ̂)."""

    @pytest.mark.parametrize("backend", ["sequential", "batched"])
    def test_all_roots_willing_gives_full_coverage(self, backend):
        g = InfluenceGraph(1, [])
        sel = comic_rr_selection(
            g, ComICModel(1.0, 1.0, 1.0, 1.0), 0, (), 1, 0.5, 1.0,
            num_forward_worlds=2,
            ctx=EngineContext.create(
                backend=backend, rng=np.random.default_rng(0)
            ),
        )
        assert sel.seeds == (0,)
        assert sel.coverage_fraction == 1.0

    @pytest.mark.parametrize("backend", ["sequential", "batched"])
    def test_all_roots_unwilling_gives_zero_coverage(self, backend):
        # q_plain = 0 and no boosted adopters (empty fixed seeds): every RR
        # set is empty.  Under the θ-denominator convention the fraction is
        # exactly 0.0 (a nonempty-denominator convention would be 0/0).
        g = InfluenceGraph(1, [])
        sel = comic_rr_selection(
            g, ComICModel(0.0, 1.0, 0.0, 1.0), 0, (), 1, 0.5, 1.0,
            num_forward_worlds=2,
            ctx=EngineContext.create(
                backend=backend, rng=np.random.default_rng(0)
            ),
        )
        assert sel.seeds == (0,)
        assert sel.coverage_fraction == 0.0

    @pytest.mark.parametrize("backend", ["sequential", "batched"])
    def test_failed_roots_dilute_coverage(self, backend):
        # Star with certain edges and q = 0.3 everywhere: the hub covers a
        # ~q * (1/n + q (n-1)/n) ≈ 0.096 fraction of all θ sets.  Under the
        # (rejected) nonempty-denominator convention this would be ≈ 0.32.
        g = star_graph(41, probability=1.0, outward=True)
        sel = comic_rr_selection(
            g, ComICModel(0.3, 0.3, 0.3, 0.3), 0, (), 1, 0.5, 1.0,
            num_forward_worlds=3,
            ctx=EngineContext.create(
                backend=backend, rng=np.random.default_rng(5)
            ),
        )
        assert sel.seeds == (0,)
        assert 0.05 < sel.coverage_fraction < 0.2


class TestSequentialGoldens:
    """Sequential RR-SIM+/RR-CIM are pinned byte-for-byte (oracle contract)."""

    def test_rr_sim_plus_golden(self):
        result = rr_sim_plus(
            _golden_graph(), GAP, (4, 3), num_forward_worlds=3,
            ctx=EngineContext.create(
                backend="sequential", rng=np.random.default_rng(11)
            ),
        )
        assert result.seeds_selected_item == GOLDEN_RRSIM_SELECTED
        assert result.seeds_fixed_item == GOLDEN_RRSIM_FIXED
        assert result.num_rr_sets == GOLDEN_RRSIM_NUM_RR_SETS

    def test_rr_cim_golden(self):
        result = rr_cim(
            _golden_graph(), GAP, (4, 3), num_forward_worlds=3,
            ctx=EngineContext.create(
                backend="sequential", rng=np.random.default_rng(11)
            ),
        )
        assert result.seeds_selected_item == GOLDEN_RRCIM_SELECTED
        assert result.seeds_fixed_item == GOLDEN_RRCIM_FIXED
        assert result.num_rr_sets == GOLDEN_RRCIM_NUM_RR_SETS

    # (Cross-backend scale/quality parity for RR-SIM+/RR-CIM moved to
    # tests/test_engine_context.py.)


class TestBatchedKPT:
    def test_tim_kpt_agrees_across_backends(self):
        # With both adoption coins at 1 every GAP set is an IC RR set, so
        # this is TIM's KptEstimation on the one surviving estimator.
        g = random_wc_graph(800, avg_degree=6, seed=31)
        estimates = {}
        for backend in ("sequential", "batched"):
            sampler = _GapSampler(
                g, q_plain=1.0, q_boosted=1.0,
                ctx=EngineContext.create(
                    backend=backend, rng=np.random.default_rng(3)
                ),
            )
            estimates[backend] = _estimate_kpt(g, 10, 1.0, sampler)
        kpt_seq, used_seq = estimates["sequential"]
        kpt_bat, used_bat = estimates["batched"]
        # Same geometric schedule, independent streams: the estimates target
        # the same KPT and typically stop at the same round.
        assert kpt_bat == pytest.approx(kpt_seq, rel=0.5)
        assert used_bat == used_seq


class TestSingletonGraphs:
    """Regression: 1-node graphs with k >= 1 must select node 0."""

    def test_imm_singleton(self):
        assert imm(InfluenceGraph(1, []), 1).seeds == (0,)

    def test_prima_singleton(self):
        result = prima(InfluenceGraph(1, []), [2, 1])
        assert result.seeds == (0,)
        assert result.coverage_fraction == 1.0

    def test_empty_graph_still_returns_no_seeds(self):
        g = InfluenceGraph(0, [])
        assert imm(g, 1).seeds == ()
        assert prima(g, [1]).seeds == ()

    def test_zero_budget_singleton(self):
        g = InfluenceGraph(1, [])
        assert prima(g, [0]).seeds == ()
