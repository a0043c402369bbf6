"""Parallel forward-simulation benchmark: sharded Monte-Carlo estimates.

Times the ``parallel`` backend's forward estimators — welfare
(:func:`repro.diffusion.welfare.estimate_welfare`) and Com-IC spread
(:func:`repro.diffusion.comic.estimate_comic_spread`) — with the worlds
fanned over the shared-memory worker pool, against the same estimates run
through the identical shard structure in-process (``processes=0``).
Comparing pooled against in-process *of the same backend* isolates
exactly the pool's contribution: both sides run the same batched kernels
on the same shard streams, so the ratio is pure dispatch economics.

Each side's time is the median of ``REPEATS`` calls after one warm-up:
one call lasts 10–20 ms, and single calls of the same pooled estimate
read anywhere from 0.85x to 1.6x.  Every pooled measurement **fails
loudly if the pool path was not exercised** (the ``tasks_dispatched``
counter must grow by the shard count on every timed call).  Rows record ``processes`` and
``effective_cores``.

Writes ``BENCH_parallel_forward.json`` at the repository root.  Gates:

* pooled and in-process estimates are **byte-identical** (the
  determinism contract: worker count never touches a number);
* the parallel estimate is statistically equivalent to the plain batched
  backend's (|z| < 5 against the combined stderr — different streams,
  same distribution);
* on runners with >= 2 effective cores, pooled wall-clock beats
  in-process by ``MIN_SPEEDUP`` (default 1.3x, relaxed via
  ``REPRO_BENCH_MIN_SPEEDUP``).  A single-core runner still verifies
  pool dispatch and both equivalence gates, but reports the (there
  meaningless) speedup ungated.
"""

import json
import os
import statistics
import time
from pathlib import Path

from _bench_utils import BENCH_SAMPLES, min_speedup, record, run_once
from repro.diffusion.comic import ComICModel, estimate_comic_spread
from repro.diffusion.welfare import estimate_welfare
from repro.engine import EngineContext
from repro.experiments.configs import two_item_config
from repro.graph.generators import random_wc_graph
from repro.parallel import FORWARD_SHARDS, get_pool, shutdown_pool

REPO_ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_parallel_forward.json"

#: Minimum pooled-over-in-process speedup, gated only on >= 2 cores.
MIN_SPEEDUP = min_speedup(1.3)

NUM_SAMPLES = max(200, BENCH_SAMPLES)
try:
    _CORES = len(os.sched_getaffinity(0))
except AttributeError:  # pragma: no cover - non-Linux fallback
    _CORES = os.cpu_count() or 1
NUM_PROCESSES = max(2, min(8, _CORES))

#: Timed calls per side; the row records their median.
REPEATS = 5


def _median_call(fn):
    """``fn``'s value and its median wall-clock over REPEATS calls."""
    seconds = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        value = fn()
        seconds.append(time.perf_counter() - t0)
    return value, statistics.median(seconds)


def _timed_pooled(fn, shards):
    """Run ``fn`` with the pool at NUM_PROCESSES, assert dispatch, time it."""
    shutdown_pool()
    pool = get_pool(NUM_PROCESSES)
    fn()  # warm-up: spawn workers + publish the graph outside the timing
    before = pool.tasks_dispatched
    value, seconds = _median_call(fn)
    dispatched = pool.tasks_dispatched - before
    if dispatched != shards * REPEATS:
        raise AssertionError(
            f"expected {shards * REPEATS} shard tasks through the pool, "
            f"saw {dispatched} — the in-process fallback ran, this is not "
            "a parallel measurement"
        )
    shutdown_pool()
    return value, seconds


def _timed_in_process(fn):
    shutdown_pool()
    get_pool(0)
    fn()  # warm-up, as on the pooled side
    value, seconds = _median_call(fn)
    shutdown_pool()
    return value, seconds


def _welfare_row(graph, model):
    allocation = [(v, v % 2) for v in range(10)]
    shards = min(NUM_SAMPLES, FORWARD_SHARDS)

    def run_parallel():
        return estimate_welfare(
            graph, model, allocation, num_samples=NUM_SAMPLES,
            ctx=EngineContext.create(backend="parallel", seed=7),
        )

    pooled, pooled_s = _timed_pooled(run_parallel, shards)
    serial, serial_s = _timed_in_process(run_parallel)
    batched = estimate_welfare(
        graph, model, allocation, num_samples=NUM_SAMPLES,
        ctx=EngineContext.create(backend="batched", seed=7),
    )
    sigma = max((pooled.stderr**2 + batched.stderr**2) ** 0.5, 1e-12)
    return {
        "estimator": "welfare",
        "nodes": graph.num_nodes,
        "samples": NUM_SAMPLES,
        "shards": shards,
        "processes": NUM_PROCESSES,
        "effective_cores": _CORES,
        "pooled_s": round(pooled_s, 3),
        "in_process_s": round(serial_s, 3),
        "speedup": round(serial_s / pooled_s, 2),
        "identical": bool(pooled.mean == serial.mean),
        "z_vs_batched": round(abs(pooled.mean - batched.mean) / sigma, 2),
    }


def _spread_row(graph):
    model = ComICModel(0.1, 0.4, 0.1, 0.4)
    seeds_a, seeds_b = list(range(5)), list(range(5, 10))
    shards = min(NUM_SAMPLES, FORWARD_SHARDS)

    def run_parallel():
        return estimate_comic_spread(
            graph, model, seeds_a, seeds_b, item=0, num_samples=NUM_SAMPLES,
            ctx=EngineContext.create(backend="parallel", seed=7),
        )

    pooled, pooled_s = _timed_pooled(run_parallel, shards)
    serial, serial_s = _timed_in_process(run_parallel)
    batched = estimate_comic_spread(
        graph, model, seeds_a, seeds_b, item=0, num_samples=NUM_SAMPLES,
        ctx=EngineContext.create(backend="batched", seed=7),
    )
    # Spread returns a bare mean; bound the per-world sd by n_nodes / 2.
    sigma = graph.num_nodes * 0.5 / (NUM_SAMPLES**0.5)
    return {
        "estimator": "comic_spread",
        "nodes": graph.num_nodes,
        "samples": NUM_SAMPLES,
        "shards": shards,
        "processes": NUM_PROCESSES,
        "effective_cores": _CORES,
        "pooled_s": round(pooled_s, 3),
        "in_process_s": round(serial_s, 3),
        "speedup": round(serial_s / pooled_s, 2),
        "identical": bool(pooled == serial),
        "z_vs_batched": round(abs(pooled - batched) / sigma, 2),
    }


def _run_comparison():
    graph = random_wc_graph(4_000, avg_degree=7, seed=41)
    model = two_item_config(1).model
    return [_welfare_row(graph, model), _spread_row(graph)]


def test_parallel_forward_speedup(benchmark):
    rows = run_once(benchmark, _run_comparison)
    record(
        "parallel_forward", rows,
        header="pooled vs in-process forward Monte-Carlo (parallel backend)",
    )
    JSON_PATH.write_text(json.dumps(rows, indent=2) + "\n")

    for row in rows:
        # Determinism gate: the pool never changes a number.
        assert row["identical"], row
        # Statistical-equivalence gate vs the plain batched backend.
        assert row["z_vs_batched"] < 5.0, row
        assert row["processes"] >= 2, row
        # Wall-clock gate only where the hardware can honestly deliver it.
        if row["effective_cores"] >= 2:
            assert row["speedup"] >= MIN_SPEEDUP, row


if __name__ == "__main__":
    results = _run_comparison()
    print(json.dumps(results, indent=2))
    JSON_PATH.write_text(json.dumps(results, indent=2) + "\n")
