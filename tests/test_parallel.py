"""The shared-memory parallel layer's contracts (DESIGN.md §6).

Four pinned behaviors:

1. **Determinism.** Sharded builds and forward estimates are pure
   functions of ``(seed, shard structure)`` — byte-identical across
   ``processes ∈ {0, 2, 4}``, because pooled and in-process dispatch run
   the same task functions on the same arrays.
2. **No /dev/shm leaks.** Every published segment is unlinked on pool
   shutdown AND after worker crashes (single and repeated).
3. **Crash recovery.** A killed worker breaks the executor; the pool
   retries once on a fresh one and keeps serving afterwards.
4. **Backend wiring.** ``parallel`` resolves as a first-class backend
   (explicit > ``$REPRO_RR_BACKEND``), and a lineage-less parallel
   context degrades to batched with the pinned warning.
"""

from __future__ import annotations

import glob
import warnings

import numpy as np
import pytest

from repro.diffusion.comic import ComICModel, estimate_comic_spread
from repro.diffusion.personalized import estimate_welfare_personalized
from repro.diffusion.welfare import estimate_adoption, estimate_welfare
from repro.engine import BACKENDS, EngineContext
from repro.graph.generators import random_wc_graph
from repro.parallel import (
    FORWARD_SHARDS,
    LINEAGE_FALLBACK_MESSAGE,
    SEGMENT_PREFIX,
    forward_shard_counts,
    get_pool,
    pool_stats,
    publish_graph,
    attach_graph,
    shutdown_pool,
)
from repro.store import build_sharded


def _shm_blocks() -> set:
    """Names of this layer's live shared-memory blocks."""
    return set(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}-*"))


@pytest.fixture(autouse=True)
def fresh_pool():
    """Every test starts and ends with no pool and no segments."""
    shutdown_pool()
    before = _shm_blocks()
    yield
    shutdown_pool()
    assert _shm_blocks() <= before


@pytest.fixture
def graph():
    return random_wc_graph(200, avg_degree=5, seed=31)


#: Every forward estimator at 48 worlds, as ``run(graph, uic_model, ctx)``.
FORWARD_ESTIMATORS = {
    "welfare": lambda graph, model, ctx: estimate_welfare(
        graph, model, [(0, 0), (1, 1)], num_samples=48, ctx=ctx
    ),
    "adoption": lambda graph, model, ctx: estimate_adoption(
        graph, model, [(0, 0), (1, 1)], num_samples=48, ctx=ctx
    ),
    "comic_spread": lambda graph, model, ctx: estimate_comic_spread(
        graph, ComICModel(0.2, 0.6, 0.2, 0.6), [0, 1], [2, 3], item=0,
        num_samples=48, ctx=ctx,
    ),
    "welfare_personalized": lambda graph, model, ctx: (
        estimate_welfare_personalized(
            graph, model, [(0, 0), (1, 1)], num_samples=48, ctx=ctx
        )
    ),
}


class TestShardCounts:
    def test_counts_sum_and_cap(self):
        for n in (1, 3, FORWARD_SHARDS, 100, 1001):
            counts = forward_shard_counts(n)
            assert sum(counts) == n
            assert len(counts) == min(n, FORWARD_SHARDS)
            assert max(counts) - min(counts) <= 1

    def test_counts_do_not_depend_on_workers(self, monkeypatch):
        baseline = forward_shard_counts(100)
        monkeypatch.setenv("REPRO_PARALLEL_PROCESSES", "7")
        assert forward_shard_counts(100) == baseline


class TestSharedMemoryRoundTrip:
    def test_attach_reproduces_graph(self, graph):
        shm, spec = publish_graph(graph, None)
        try:
            attached, trigger_csr, worker_shm = attach_graph(spec)
            assert trigger_csr is None
            assert attached.num_nodes == graph.num_nodes
            for name in (
                "_out_indptr", "_out_probs", "_in_indptr", "_in_probs"
            ):
                assert np.array_equal(
                    getattr(attached, name), getattr(graph, name)
                )
        finally:
            shm.close()
            shm.unlink()


class TestDeterminism:
    """processes ∈ {0, 2, 4} — worker count never touches a byte."""

    @pytest.mark.parametrize("processes", [2, 4])
    def test_build_sharded_matches_in_process(self, graph, processes):
        kwargs = dict(
            num_shards=4,
            estimation_rr_sets=400,
            ctx=EngineContext.create(seed=17),
        )
        serial = build_sharded(graph, 4, processes=0, **kwargs)
        kwargs["ctx"] = EngineContext.create(seed=17)
        pooled = build_sharded(graph, 4, processes=processes, **kwargs)
        assert get_pool().tasks_dispatched > 0
        assert np.array_equal(serial.members, pooled.members)
        assert np.array_equal(serial.offsets, pooled.offsets)
        assert np.array_equal(serial.seed_order, pooled.seed_order)

    @pytest.mark.parametrize("processes", [2, 4])
    @pytest.mark.parametrize("estimator", sorted(FORWARD_ESTIMATORS))
    def test_forward_welfare_identical(
        self, graph, config1_model, estimator, processes
    ):
        """Every estimator's pooled shards equal its in-process shards."""

        def run():
            return FORWARD_ESTIMATORS[estimator](
                graph,
                config1_model,
                EngineContext.create(backend="parallel", seed=5),
            )

        get_pool(0)
        in_process = run()
        get_pool(processes)
        pooled = run()
        assert get_pool().tasks_dispatched == len(forward_shard_counts(48))
        assert pooled == in_process

    @pytest.mark.parametrize("processes", [2])
    def test_forward_spread_identical(self, graph, processes):
        model = ComICModel(0.2, 0.6, 0.2, 0.6)

        def run():
            return estimate_comic_spread(
                graph,
                model,
                [0, 1],
                [2, 3],
                item=0,
                num_samples=40,
                ctx=EngineContext.create(backend="parallel", seed=9),
            )

        get_pool(0)
        in_process = run()
        get_pool(processes)
        assert run() == in_process

    def test_adoption_parallel_matches_batched(self, graph, config1_model):
        get_pool(0)
        parallel = estimate_adoption(
            graph,
            config1_model,
            [(0, 0), (1, 1)],
            item=0,
            num_samples=32,
            ctx=EngineContext.create(backend="parallel", seed=3),
        )
        assert parallel.mean >= 0.0


class TestShardHistory:
    def test_forward_history_is_kept_per_kernel(self):
        """Welfare's seconds per world never plan Com-IC's dispatch."""
        from functools import partial

        from repro.diffusion.batch_forward import (
            batch_comic_counts,
            batch_uic_welfare,
        )
        from repro.parallel.pool import _AdaptiveSharder, _history_key

        welfare = [(None, 10, partial(batch_uic_welfare, model=None))] * 8
        comic = [(None, 10, partial(batch_comic_counts, model=None))] * 8
        welfare_key = _history_key("forward_shard", welfare[0])
        comic_key = _history_key("forward_shard", comic[0])
        sharder = _AdaptiveSharder()
        sharder.observe(welfare_key, worlds=10, seconds=0.1)
        assert len(sharder.plan(welfare_key, welfare, 2, 0.2)) < 8
        assert sharder.plan(comic_key, comic, 2, 0.2) == [
            [i] for i in range(8)
        ]
        assert _history_key("rr_shard", (None, 10, None, "batched")) == (
            "rr_shard"
        )


class TestLeaks:
    def test_segments_unlinked_on_shutdown(self, graph):
        pool = get_pool(2)
        pool.map_shards(
            "rr_shard",
            graph,
            [(np.random.SeedSequence(0), 50, None, "batched")] * 2,
        )
        assert pool.segment_names  # published while live
        live = _shm_blocks()
        assert any(name.split("/")[-1] in str(live) for name in pool.segment_names)
        shutdown_pool()
        assert not _shm_blocks()

    def test_segments_unlinked_after_worker_crash(self, graph):
        pool = get_pool(2)
        jobs = [(np.random.SeedSequence(i), 1) for i in range(2)]
        with pytest.raises(Exception):
            pool.map_shards("_kill_worker", graph, jobs)
        assert not _shm_blocks()

    def test_reset_is_idempotent(self, graph):
        pool = get_pool(2)
        pool.map_shards(
            "rr_shard",
            graph,
            [(np.random.SeedSequence(0), 20, None, "batched")] * 2,
        )
        pool.reset()
        pool.reset()
        assert not _shm_blocks()
        assert pool.segment_names == []


class TestCrashRecovery:
    def test_pool_restarts_after_killed_worker(self, graph):
        pool = get_pool(2)
        assert pool.restarts == 0
        with pytest.raises(Exception):
            pool.map_shards(
                "_kill_worker",
                graph,
                [(np.random.SeedSequence(i), 1) for i in range(2)],
            )
        # The same pool object serves the next dispatch on a fresh
        # executor, and the results match the in-process truth.
        jobs = [(np.random.SeedSequence(4), 60, None, "batched")]
        jobs.append((np.random.SeedSequence(5), 60, None, "batched"))
        recovered = pool.map_shards("rr_shard", graph, jobs)
        # The crash is visible in the recovery counter and pool stats
        # (and from there in /v1/stats and the metrics registry).
        assert pool.restarts >= 1
        stats = pool.stats()
        assert stats["restarts"] == pool.restarts
        assert stats["tasks_dispatched"] == pool.tasks_dispatched
        assert pool_stats()["active"] == 1
        assert pool_stats()["restarts"] == pool.restarts
        pool.reconfigure(0)
        serial = pool.map_shards("rr_shard", graph, jobs)
        for (m1, w1), (m2, w2) in zip(recovered, serial):
            assert np.array_equal(m1, m2)
            assert np.array_equal(w1, w2)

    def test_pool_stats_inactive_shape(self):
        assert pool_stats() == {
            "active": 0,
            "processes": 0,
            "tasks_dispatched": 0,
            "restarts": 0,
            "segments": 0,
        }


class TestBackendWiring:
    def test_parallel_is_a_backend(self):
        assert "parallel" in BACKENDS
        ctx = EngineContext.create(backend="parallel", seed=0)
        assert ctx.backend == "parallel"

    def test_explicit_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_RR_BACKEND", "sequential")
        ctx = EngineContext.create(backend="parallel", seed=0)
        assert ctx.backend == "parallel"
        assert EngineContext.create(seed=0).backend == "sequential"

    def test_environment_resolves_parallel(self, monkeypatch):
        monkeypatch.setenv("REPRO_RR_BACKEND", "parallel")
        assert EngineContext.create(seed=0).backend == "parallel"

    def test_lineage_less_parallel_warns_and_degrades(
        self, graph, config1_model
    ):
        ctx = EngineContext.create(
            backend="parallel", rng=np.random.default_rng(0)
        )
        assert not ctx.has_lineage
        with pytest.warns(UserWarning, match="no integer-seed lineage"):
            est = estimate_welfare(
                graph,
                config1_model,
                [(0, 0)],
                num_samples=8,
                ctx=ctx,
            )
        assert np.isfinite(est.mean)
        assert LINEAGE_FALLBACK_MESSAGE.format(caller="x")  # template intact

    def test_seeded_parallel_does_not_warn(self, graph, config1_model):
        get_pool(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            estimate_welfare(
                graph,
                config1_model,
                [(0, 0)],
                num_samples=8,
                ctx=EngineContext.create(backend="parallel", seed=1),
            )
