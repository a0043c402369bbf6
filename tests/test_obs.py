"""repro.obs contracts — metrics registry, Prometheus text, span tracing.

Pinned behaviors (DESIGN.md §9):

* **Registry.** Registration is get-or-create: the same name with the
  same kind and labels returns the same instance (so every module-level
  handle to ``repro_engine_phase_seconds`` shares one histogram), while
  a kind or label mismatch raises.  Counters are monotone; label sets
  are validated at observation time.
* **Exposition.** ``render()`` emits Prometheus text format 0.0.4 with
  cumulative histogram buckets, ``+Inf``, ``_sum`` and ``_count``;
  :func:`~repro.obs.parse_prometheus` round-trips it and rejects
  malformed text.
* **Tracing is zero-cost when off.** ``span()`` with tracing disabled
  returns the module-level no-op singleton — no allocation, no clock
  read — and instrumented estimates are byte-identical with tracing on
  vs off (observability never touches RNG lineage).
* **Cross-process spans.** A pooled forward estimate yields ONE tree:
  every shard appears as a child with its own wall-clock, queue wait,
  and worker-pid attribution.
"""

from __future__ import annotations

import io
import os

import pytest

from repro import obs
from repro.diffusion.welfare import estimate_welfare
from repro.engine import EngineContext
from repro.graph.generators import random_wc_graph
from repro.parallel import (
    forward_shard_counts,
    get_pool,
    pool_stats,
    shutdown_pool,
)


@pytest.fixture(autouse=True)
def tracing_off():
    """Every test starts and ends with tracing disabled and trees cleared."""
    obs.disable_tracing()
    yield
    obs.disable_tracing()


@pytest.fixture
def registry():
    return obs.MetricsRegistry()


@pytest.fixture
def graph():
    return random_wc_graph(150, avg_degree=5, seed=29)


class TestRegistry:
    def test_counter_monotone(self, registry):
        c = registry.counter("repro_t_total", "things", labels=("kind",))
        c.inc(kind="a")
        c.inc(2, kind="a")
        c.inc(5, kind="b")
        assert c.value(kind="a") == 3
        assert c.value(kind="b") == 5
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1, kind="a")

    def test_gauge_moves_both_ways(self, registry):
        g = registry.gauge("repro_t_depth")
        g.set(4)
        g.inc()
        g.dec(2)
        assert g.value() == 3

    def test_histogram_observe_and_snapshot(self, registry):
        h = registry.histogram("repro_t_seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(5.55)

    def test_get_or_create_is_idempotent(self, registry):
        first = registry.counter("repro_t_total", "x", labels=("kind",))
        again = registry.counter("repro_t_total", "x", labels=("kind",))
        assert first is again

    def test_kind_and_label_mismatch_raise(self, registry):
        registry.counter("repro_t_total", labels=("kind",))
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_t_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("repro_t_total", labels=("other",))

    def test_invalid_names_and_labels_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.counter("bad name")
        c = registry.counter("repro_t_total", labels=("kind",))
        with pytest.raises(ValueError):
            c.inc(wrong_label="x")
        with pytest.raises(ValueError):
            c.inc()  # missing the declared label

    def test_reset_zeroes_samples_keeps_registrations(self, registry):
        c = registry.counter("repro_t_total")
        c.inc(7)
        registry.reset()
        assert c.value() == 0
        assert registry.get("repro_t_total") is c

    def test_timer_observes_into_histogram(self, registry):
        h = registry.histogram("repro_t_seconds", labels=("phase",))
        with h.timer(phase="demo"):
            pass
        snap = h.snapshot(phase="demo")
        assert snap["count"] == 1
        assert snap["sum"] >= 0


class TestPrometheusText:
    def test_render_golden_shape(self, registry):
        c = registry.counter("repro_t_total", "Things done", labels=("kind",))
        c.inc(3, kind="a")
        g = registry.gauge("repro_t_depth", "Queue depth")
        g.set(2)
        text = registry.render()
        assert "# HELP repro_t_total Things done" in text
        assert "# TYPE repro_t_total counter" in text
        assert 'repro_t_total{kind="a"} 3' in text
        assert "# TYPE repro_t_depth gauge" in text
        assert "repro_t_depth 2" in text
        assert text.endswith("\n")

    def test_histogram_buckets_are_cumulative(self, registry):
        h = registry.histogram("repro_t_seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        text = registry.render()
        assert 'repro_t_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_t_seconds_bucket{le="1"} 2' in text
        assert 'repro_t_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_t_seconds_count 3" in text

    def test_parse_round_trips_render(self, registry):
        c = registry.counter("repro_t_total", labels=("kind",))
        c.inc(3, kind="a b")
        h = registry.histogram("repro_t_seconds", buckets=(0.5,))
        h.observe(0.25)
        parsed = obs.parse_prometheus(registry.render())
        assert parsed["repro_t_total"]['{"kind": "a b"}'] == 3
        assert parsed["repro_t_seconds_bucket"]['{"le": "+Inf"}'] == 1
        assert parsed["repro_t_seconds_count"][""] == 1

    def test_escaped_labels_stay_parseable(self, registry):
        c = registry.counter("repro_t_total", labels=("kind",))
        c.inc(1, kind='q"b\\c\nd')
        parsed = obs.parse_prometheus(registry.render())
        assert len(parsed["repro_t_total"]) == 1

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            obs.parse_prometheus("repro_t_total three\n")
        with pytest.raises(ValueError):
            obs.parse_prometheus("not a metric line at all !!\n")

    def test_snapshot_is_compact(self, registry):
        registry.counter("repro_t_total").inc(4)
        labeled = registry.counter("repro_t_hits_total", labels=("result",))
        labeled.inc(2, result="hit")
        h = registry.histogram("repro_t_seconds")
        h.observe(0.2)
        snap = registry.snapshot()
        assert snap["repro_t_total"] == 4
        assert snap["repro_t_hits_total"] == {"result=hit": 2}
        assert snap["repro_t_seconds"] == {"count": 1, "sum": pytest.approx(0.2)}


class TestSpans:
    def test_disabled_span_is_the_noop_singleton(self):
        assert not obs.tracing_enabled()
        handle = obs.span("rrset.kpt", k=3)
        assert handle is obs.NOOP_SPAN
        with handle:
            assert obs.current_span() is obs.NOOP_SPAN

    def test_enabled_spans_build_one_tree(self):
        obs.enable_tracing()
        obs.clear_finished()
        with obs.span("outer", k=2) as outer:
            with obs.span("inner") as inner:
                inner.set(rows=7)
        roots = obs.finished_roots()
        assert [r.name for r in roots] == ["outer"]
        root = roots[0]
        assert root.attrs == {"k": 2}
        assert root.duration_s is not None and root.duration_s >= 0
        assert [c.name for c in root.children] == ["inner"]
        assert root.children[0].attrs == {"rows": 7}
        assert outer is root

    def test_render_span_tree_lists_every_span(self):
        obs.enable_tracing()
        obs.clear_finished()
        with obs.span("outer"):
            with obs.span("inner", shard=0):
                pass
        rendered = obs.render_span_tree(obs.finished_roots()[0])
        lines = rendered.splitlines()
        assert lines[0].startswith("outer ")
        assert lines[1].startswith("  inner ")
        assert "shard=0" in lines[1]

    def test_remote_payload_round_trip(self):
        obs.enable_tracing()
        obs.clear_finished()
        payload = obs.remote_span_payload("parallel.task", shard=1)
        assert payload is not None
        result, span_dict = obs.record_remote(payload, lambda x: x + 1, 41)
        assert result == 42
        with obs.span("parallel.forward"):
            obs.adopt(span_dict)
        root = obs.finished_roots()[0]
        task = root.children[0]
        assert task.name == "parallel.task"
        assert task.attrs["shard"] == 1
        assert task.attrs["queue_wait_s"] >= 0
        assert task.duration_s is not None

    def test_record_remote_without_payload_skips_tracing(self):
        result, span_dict = obs.record_remote(None, lambda: 5)
        assert result == 5
        assert span_dict is None

    def test_disable_clears_state(self):
        obs.enable_tracing()
        with obs.span("outer"):
            pass
        obs.disable_tracing()
        assert obs.finished_roots() == ()
        assert obs.span("again") is obs.NOOP_SPAN


class TestStopwatchAndEmit:
    def test_stopwatch_overwrites_sink_key(self):
        sink = {"seconds": 999.0}
        with obs.stopwatch(sink):
            pass
        assert 0 <= sink["seconds"] < 999.0
        with obs.stopwatch(sink, key="phase_s"):
            pass
        assert "phase_s" in sink

    def test_emit_writes_line_to_stream(self):
        stream = io.StringIO()
        obs.emit("hello", stream=stream)
        assert stream.getvalue() == "hello\n"


class TestByteIdentity:
    def test_tracing_on_off_identical_estimates(self, graph, config1_model):
        """Observability must never touch the RNG lineage."""

        def run():
            return estimate_welfare(
                graph,
                config1_model,
                [(0, 0), (1, 1)],
                num_samples=32,
                ctx=EngineContext.create(seed=11),
            )

        baseline = run()
        obs.enable_tracing()
        traced = run()
        obs.disable_tracing()
        untraced = run()
        assert traced.mean == baseline.mean
        assert traced.stderr == baseline.stderr
        assert untraced.mean == baseline.mean
        assert untraced.stderr == baseline.stderr


class TestForwardChunkSpan:
    def test_batched_estimators_record_their_chunking(
        self, graph, config1_model, monkeypatch
    ):
        """The totals path shows how many chunks a forward estimate ran."""
        from repro.diffusion import batch_forward
        from repro.diffusion.welfare import estimate_adoption

        monkeypatch.setattr(batch_forward, "_TARGET_BYTES", 1 << 16)
        obs.enable_tracing()
        obs.clear_finished()
        for estimator in (estimate_welfare, estimate_adoption):
            estimator(
                graph,
                config1_model,
                [(0, 0), (1, 1)],
                num_samples=40,
                ctx=EngineContext.create(seed=3),
            )
        roots = obs.finished_roots()
        assert [r.name for r in roots] == [
            "diffusion.welfare", "diffusion.adoption",
        ]
        for root in roots:
            (chunked,) = root.children
            assert chunked.name == "diffusion.batch_uic"
            attrs = chunked.attrs
            assert attrs["worlds"] == 40
            assert attrs["chunks"] >= 3
            assert 1 < attrs["worlds_per_chunk"] < 40
            assert attrs["chunks"] == -(-40 // attrs["worlds_per_chunk"])


class TestPooledSpanTree:
    def test_every_shard_attributed_with_wall_clock(
        self, graph, config1_model
    ):
        """The acceptance pin: one coherent tree from a pooled estimate."""
        shutdown_pool()
        obs.enable_tracing()
        obs.clear_finished()
        try:
            get_pool(2)
            estimate_welfare(
                graph,
                config1_model,
                [(0, 0), (1, 1)],
                num_samples=24,
                ctx=EngineContext.create(backend="parallel", seed=5),
            )
            roots = [
                r for r in obs.finished_roots()
                if r.name == "diffusion.welfare"
            ]
            assert len(roots) == 1
            forward = next(
                c for c in roots[0].children if c.name == "parallel.forward"
            )
            tasks = [
                c for c in forward.children if c.name == "parallel.task"
            ]
            expected = len(forward_shard_counts(24))
            assert sorted(t.attrs["shard"] for t in tasks) == list(
                range(expected)
            )
            for task in tasks:
                assert task.duration_s is not None and task.duration_s >= 0
                assert task.attrs["mode"] == "pool"
                assert task.attrs["queue_wait_s"] >= 0
                assert task.pid != os.getpid()
            stats = pool_stats()
            assert stats["active"] == 1
            assert stats["tasks_dispatched"] >= expected
        finally:
            shutdown_pool()

    def test_in_process_fallback_spans_inline(self, graph, config1_model):
        shutdown_pool()
        obs.enable_tracing()
        obs.clear_finished()
        try:
            get_pool(0)
            estimate_welfare(
                graph,
                config1_model,
                [(0, 0)],
                num_samples=8,
                ctx=EngineContext.create(backend="parallel", seed=5),
            )
            root = next(
                r for r in obs.finished_roots()
                if r.name == "diffusion.welfare"
            )
            forward = next(
                c for c in root.children if c.name == "parallel.forward"
            )
            tasks = [
                c for c in forward.children if c.name == "parallel.task"
            ]
            assert tasks
            assert all(t.attrs["mode"] == "inline" for t in tasks)
            assert all(t.pid == os.getpid() for t in tasks)
        finally:
            shutdown_pool()


class TestEnginePhaseMetrics:
    def test_forward_estimate_feeds_shared_phase_histogram(
        self, graph, config1_model
    ):
        phase = obs.REGISTRY.get("repro_engine_phase_seconds")
        assert phase is not None
        before = phase.snapshot(phase="forward")["count"]
        worlds = obs.REGISTRY.get("repro_forward_worlds_total")
        worlds_before = worlds.value(engine="batched")
        estimate_welfare(
            graph,
            config1_model,
            [(0, 0)],
            num_samples=16,
            ctx=EngineContext.create(seed=1),
        )
        assert phase.snapshot(phase="forward")["count"] == before + 1
        assert worlds.value(engine="batched") == worlds_before + 16

    def test_comic_sketch_reports_kpt_and_selection(self):
        from repro.baselines._comic_common import comic_rr_sketch
        from repro.diffusion.comic import ComICModel

        phase = obs.REGISTRY.get("repro_engine_phase_seconds")
        before = {
            name: phase.snapshot(phase=name)["count"]
            for name in ("kpt", "selection")
        }
        obs.enable_tracing()
        obs.clear_finished()
        with obs.span("run"):
            state = comic_rr_sketch(
                random_wc_graph(80, avg_degree=4, seed=3),
                ComICModel(0.5, 0.8, 0.5, 0.8), 0, (1, 2), 2, 0.5, 1.0,
                EngineContext.create(seed=4), 2, False,
            )
        (root,) = obs.finished_roots()
        assert [c.name for c in root.children] == [
            "rrset.kpt", "rrset.generate_gap", "rrset.node_selection",
        ]
        kpt, theta, _ = root.children
        assert kpt.children
        assert {c.name for c in kpt.children} == {"rrset.generate_gap"}
        assert theta.attrs == {"count": state.theta, "backend": "batched"}
        for name, count in before.items():
            assert phase.snapshot(phase=name)["count"] == count + 1
