"""The serving workload: ``repro serve`` under a closed loop with hot swaps.

Set-up builds store version A (``build_store``) and version B
(``extend_store`` of A by as many sets again) from the run's graph and
serves B.  ``CLIENTS`` blocking ``ServingClient`` connections from this
one process then run a closed loop: each sends its next request only
after the previous reply, so a slow server receives less load.  The mix
is 90% ``GET spread`` over seed sets of log-uniform size and 10%
``GET seeds?budget=``.  Every ``reload_every_s`` the main thread saves
the other version over the served file and POSTs ``/reload``, so reads
run beside hot-swap writes.  Every answer must equal the local
``OracleService`` answer of version A or B.

The server runs on one CPU and this process, clients included, on
another, so the clients' CPU time stays off the server's.  The clients
share one interpreter lock, so a second CPU would give them nothing.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro import obs
from repro.serving import ServingClient
from repro.serving.client import ServingError
from repro.store import OracleService, build_store, extend_store
from suite_common import (
    REPO_ROOT,
    RunResult,
    batched_context,
    latency_metrics,
    setup_graph,
    stream_seed,
    welfare_problems,
)
from suite_trace import bench_span, covered_fraction

#: Blocking client connections: the reference machine's core count.
CLIENTS = 2
#: Share of requests that ask for a seed set instead of a spread.
SEEDS_SHARE = 0.1
#: Largest seeds budget served; the store's seed order has this many.
MAX_BUDGET = 100
#: PRIMA slack of the store's seed order.  Coarser than the paper's 0.5
#: so that building the store fits the run time.
STORE_EPSILON = 1.0
#: Distinct spread queries; requests cycle through this pool.  Large, so
#: that the pool's share of hub nodes varies little across seeds.
QUERIES = 2048
#: Spread query sizes are log-uniform on [MIN_SEEDS, MAX_SEEDS].
MIN_SEEDS, MAX_SEEDS = 10, 1000
STORE_KEY = "serve"
#: Errors a request can end with; each counts as a failed request.
REQUEST_ERRORS = (ServingError, OSError, http.client.HTTPException, ValueError)


@dataclass(frozen=True)
class ServeSize:
    """Input size of the serving workload."""

    nodes: int
    #: RR sets in store A; B adds as many again.
    estimation_sets: int
    reload_every_s: float


def _query_pool(postings: np.ndarray, seed: int) -> List[List[int]]:
    """Spread queries whose sizes are the log-uniform quantiles.

    A query's cost is the total posting length of its nodes, which a few
    hub nodes dominate.  So a query of ``c`` nodes takes one random node
    from each of ``c`` equal strata of the nodes ordered by posting
    length: every query spans the hubs and the tail alike.  With sizes
    and nodes drawn at random, the served work varied across seeds.
    """
    rng = np.random.default_rng(stream_seed(seed, 5))
    low, high = math.log(MIN_SEEDS), math.log(MAX_SEEDS)
    steps = (np.arange(QUERIES) + 0.5) / QUERIES
    counts = np.rint(np.exp(low + steps * (high - low))).astype(int)
    by_posting = np.argsort(postings, kind="stable")
    n = postings.shape[0]
    pool = []
    for count in counts:
        edges = np.linspace(0, n, count + 1).astype(np.int64)
        picks = edges[:-1] + (rng.random(count) * np.diff(edges)).astype(np.int64)
        pool.append(sorted(int(v) for v in by_posting[picks]))
    return pool


def _schedule(seed: int, client: int) -> List[tuple]:
    """One client's request cycle: every spread query once, in a seeded
    order, with a seeds request in every ``1 / SEEDS_SHARE`` slots."""
    rng = np.random.default_rng(stream_seed(seed, 10 + client))
    every = round(1 / SEEDS_SHARE)
    ops: List[tuple] = []
    for query in rng.permutation(QUERIES).tolist():
        if len(ops) % every == every - 1:
            ops.append(("seeds", int(rng.integers(1, MAX_BUDGET + 1))))
        ops.append(("spread", query))
    return ops


def _spreads(service: OracleService, pool, batch: int) -> List[float]:
    n = service.store.num_nodes
    out: List[float] = []
    for start in range(0, len(pool), batch):
        fractions = service.coverage_fractions(pool[start:start + batch])
        out.extend(f * n for f in fractions)
    return out


def _cpus():
    """(server CPU, client CPU): the first two this process may use, or
    the same one twice on a single CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[0], cpus[min(1, len(cpus) - 1)]


def _start_server(stores_dir, log_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store-root",
             str(stores_dir), "--port", "0"],
            stdout=subprocess.PIPE, stderr=log, text=True, env=env,
        )
    banner = proc.stdout.readline().strip()  # "serving N stores on h:p"
    proc.stdout.readline()  # "keys: ..."
    if not banner.startswith("serving "):
        proc.kill()
        proc.wait()
        raise RuntimeError(f"repro serve did not start: {banner!r}")
    host, port = banner.rsplit(" ", 1)[-1].split(":")
    return proc, host, int(port)


def _stop_server(proc, result: RunResult) -> None:
    proc.send_signal(signal.SIGINT)
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        result.fail("server did not stop within 60 s of SIGINT")
        return
    if proc.returncode != 0 or "leaked=0" not in out:
        result.fail(
            f"server exited {proc.returncode} without a clean shutdown: "
            f"{out.strip().splitlines()[-1:]}"
        )


def run_serve(
    size: ServeSize,
    workdir: Path,
    seed: int,
    run_seconds: float,
    trace: bool,
    reference: Optional[dict],
) -> RunResult:
    result = RunResult()
    setup = setup_graph(workdir, size.nodes, seed)
    graph = setup.graph
    stores_dir = workdir / "stores"
    stores_dir.mkdir()
    served = stores_dir / f"{STORE_KEY}.sketch"
    side = workdir / "a.sketch"

    with bench_span("setup.store") as store_root:
        t0 = time.perf_counter()
        with bench_span("store.build"):
            store_a = build_store(
                graph, MAX_BUDGET, epsilon=STORE_EPSILON,
                estimation_rr_sets=size.estimation_sets,
                ctx=batched_context(seed, 4),
            )
        t1 = time.perf_counter()
        with bench_span("store.extend"):
            store_b = extend_store(store_a, graph, size.estimation_sets)
        t2 = time.perf_counter()
        with bench_span("store.save"):
            store_b.save(served)
            store_a.save(side)
        t3 = time.perf_counter()
        with bench_span("store.open"):
            local_a = OracleService.open(side)
            local_b = OracleService.open(served)
        t4 = time.perf_counter()
    result.metrics["setup_s"] = statistics.median(setup.setup_s) + (t3 - t0)
    result.metrics.update(setup.layer_metrics())
    result.metrics.update(
        {
            "store.build_s": t1 - t0,
            "store.extend_s": t2 - t1,
            "store.save_s": t3 - t2,
            "store.open_s": t4 - t3,
            "store.file_mb": served.stat().st_size / 2**20,
            "trace.coverage_frac": covered_fraction(store_root),
            # The request loop opens no spans, so tracing costs it nothing.
            "trace.overhead_frac": 0.0,
        }
    )
    result.roots.extend(obs.finished_roots())

    pool = _query_pool(np.diff(local_b.store.idx_indptr), seed)
    expected = list(
        zip(_spreads(local_a, pool, 32), _spreads(local_b, pool, 32))
    )
    order = list(local_b.seed_order)
    top_spread = _spreads(local_b, [order[:MAX_BUDGET]], 1)[0]
    if order != list(local_a.seed_order):
        result.fail("versions A and B disagree on the seed order")
    sample = pool[:: max(1, len(pool) // 256)]
    t0 = time.perf_counter()
    _spreads(local_b, sample, 2)
    result.metrics["store.query_ms"] = (
        (time.perf_counter() - t0) * 1e3 / len(sample)
    )
    versions = {"A": store_a, "B": store_b}

    # A process and a thread inherit the CPUs of the thread that starts
    # them: the server gets the first, the client threads the second.
    server_cpu, client_cpu = _cpus()
    os.sched_setaffinity(0, {server_cpu})
    proc, host, port = _start_server(stores_dir, workdir / "server.log")
    try:
        os.sched_setaffinity(0, {client_cpu})
        _closed_loop(size, seed, run_seconds, host, port, pool, expected,
                     order, top_spread, versions, served, reference, result)
        if trace:
            _scrape(host, port, result)
        result.metrics["peak_rss_mb"] = _server_peak_mib(proc.pid)
    finally:
        _stop_server(proc, result)
    return result


def _server_peak_mib(pid: int) -> float:
    """The server's peak resident set (``VmHWM``, KiB) in MiB.

    Not ``RUSAGE_CHILDREN``: a child's ``ru_maxrss`` keeps the high-water
    mark of the address space it had before ``exec``, a copy of this
    process's.
    """
    status = Path(f"/proc/{pid}/status").read_text()
    line = next(l for l in status.splitlines() if l.startswith("VmHWM:"))
    return int(line.split()[1]) / 1024.0


def _closed_loop(size, seed, run_seconds, host, port, pool, expected, order,
                 top_spread, versions, served, reference,
                 result: RunResult) -> None:
    with ServingClient(host, port) as control:
        top = control.seeds(STORE_KEY, MAX_BUDGET)
        welfare = control.spread(STORE_KEY, top)
        if top != order[:MAX_BUDGET] or welfare != top_spread:
            result.fail("served top seeds or their spread differ from B's")
        # The spread of the served top-budget seed set: influence as
        # welfare with one item of utility 1 per adopter.  Its stderr is
        # that of the covered share of B's RR sets.
        n = versions["B"].num_nodes
        share = welfare / n
        stderr = n * math.sqrt(share * (1.0 - share) / versions["B"].num_sets)
        result.metrics["welfare"] = welfare
        result.welfare_stderr = stderr
        for problem in welfare_problems(welfare, stderr, reference):
            result.fail(problem)

        records: List[List[tuple]] = [[] for _ in range(CLIENTS)]
        window: Dict[str, float] = {}

        def open_window():
            window["start"] = time.perf_counter()
            window["deadline"] = window["start"] + run_seconds

        barrier = threading.Barrier(CLIENTS + 1, action=open_window)

        def client_loop(index: int) -> None:
            ops = _schedule(seed, index)
            out = records[index]
            with ServingClient(host, port) as client:
                client.health()
                barrier.wait(timeout=60)
                step = 0
                while time.perf_counter() < window["deadline"]:
                    kind, arg = ops[step % len(ops)]
                    step += 1
                    t0 = time.perf_counter()
                    try:
                        if kind == "spread":
                            answer = client.spread(STORE_KEY, pool[arg])
                            ok = answer in expected[arg]
                        else:
                            ok = client.seeds(STORE_KEY, arg) == order[:arg]
                    except REQUEST_ERRORS as exc:
                        ok = repr(exc)
                    out.append((time.perf_counter() - t0, kind, ok))

        threads = [
            threading.Thread(target=client_loop, args=(i,), daemon=True)
            for i in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        barrier.wait(timeout=60)

        reload_ms: List[float] = []
        current = "B"
        due = window["start"] + size.reload_every_s
        while due < window["deadline"]:
            time.sleep(max(0.0, due - time.perf_counter()))
            current = "A" if current == "B" else "B"
            versions[current].save(served)
            t0 = time.perf_counter()
            try:
                answer = control.reload(STORE_KEY)
            except REQUEST_ERRORS as exc:
                result.fail(f"reload failed: {exc!r}")
                break
            reload_ms.append((time.perf_counter() - t0) * 1e3)
            if answer["num_sets"] != versions[current].num_sets:
                result.fail(f"reload served {answer['num_sets']} sets, "
                            f"expected {versions[current].num_sets}")
            due += size.reload_every_s
        for thread in threads:
            thread.join(timeout=run_seconds + 60)
            if thread.is_alive():
                result.fail("a client thread did not finish")

    flat = [rec for per_client in records for rec in per_client]
    result.attempted += len(flat)
    bad = [rec for rec in flat if rec[2] is not True]
    result.failed += len(bad)
    for rec in bad[:5]:
        result.fail(f"request failed: {rec[2]}")
    if not flat:
        result.fail("the closed loop completed no request")
        return
    # Over every request of the run, so that the p99 sees the requests
    # that waited on a reload.
    result.metrics.update(
        latency_metrics([rec[0] for rec in flat], run_seconds)
    )
    spread_ms = [1e3 * rec[0] for rec in flat if rec[1] == "spread"]
    result.metrics["spread_p50_ms"] = statistics.median(spread_ms)
    result.metrics["serving.reload_ms"] = (
        statistics.median(reload_ms) if reload_ms else 0.0
    )


def _scrape(host: str, port: int, result: RunResult) -> None:
    """Server-side means from ``/v1/metrics`` and ``/v1/stats``."""
    with ServingClient(host, port) as client:
        samples = obs.parse_prometheus(client.metrics_text())
        stats = client.stats()
    label = json.dumps({"endpoint": "spread"}, sort_keys=True)
    total = samples["repro_serving_request_seconds_sum"][label]
    count = samples["repro_serving_request_seconds_count"][label]
    server_ms = 1e3 * total / count
    batching = stats["coalescing"][STORE_KEY]
    result.metrics.update(
        {
            "serving.server_mean_ms": server_ms,
            "serving.client_overhead_ms": result.metrics.pop("spread_p50_ms")
            - server_ms,
            "serving.batch_mean": batching["queries"] / batching["batches"],
        }
    )
