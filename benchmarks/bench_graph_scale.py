"""Web-scale graph pipeline benchmark: ingest → RR sets → forward.

Proves the :mod:`repro.graph.bigcsr` path end to end at 1M+ nodes: a
synthetic SNAP-style edge list is streamed through the two-pass ingester
into a ``.graph`` CSR file, memory-mapped back in O(1), fed to PRIMA
RR-set generation plus PRIMA's ``node_selection``, and finished
with a pooled forward Com-IC spread estimate — the pool attaching the
mmap'd arrays **without a shared-memory copy**.  Records ingest edges/s,
peak RSS, the ``.graph`` file size, and per-phase wall-clock measured
through :func:`repro.obs.stopwatch`; selection is split into the inverted
index build (``index_s``) and the greedy rounds (``rounds_s``).

Scale knobs:

* ``REPRO_BENCH_GRAPH_NODES``   — node count (default 1,100,000; CI runs
  100,000)
* ``REPRO_BENCH_GRAPH_DEGREE``  — average out-degree of the synthetic
  edge list (default 8)
* ``REPRO_BENCH_GRAPH_RR``      — RR sets to sample (default n // 10,
  floor 20,000)

Gates (all scales):

* ``load_graph(verify=True)`` — the mmap'd arrays hash back to the
  fingerprint the ingester recorded;
* the pooled forward estimate is **byte-identical** to the in-process
  estimate of the same shard structure (grouping/adaptive sharding never
  touches a number);
* the pooled dispatch created **zero** shared-memory segments (the
  file-backed attach path ran).

Extra gates at CI scale (``nodes <= 300,000``):

* the mmap-loaded graph's fingerprint equals an independent in-memory
  construction from the same records (dense ids, WC weighting);
* ingest + load beats the legacy ``read_edge_list`` path by
  ``MIN_SPEEDUP`` (default 1.3x, relaxed via
  ``REPRO_BENCH_MIN_SPEEDUP``).

Writes ``BENCH_graph_scale.json`` at the repository root.
"""

import json
import os
import resource
from pathlib import Path

import numpy as np

from _bench_utils import min_speedup, record, run_once
from repro import obs
from repro.diffusion.comic import ComICModel, estimate_comic_spread
from repro.engine import EngineContext
from repro.graph.bigcsr import ingest_edge_list, load_graph
from repro.graph.digraph import InfluenceGraph
from repro.graph.io import graph_fingerprint, read_edge_list
from repro.parallel import FORWARD_SHARDS, get_pool, shutdown_pool
from repro.rrset.node_selection import node_selection
from repro.rrset.rrgen import RRCollection

REPO_ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_graph_scale.json"

NUM_NODES = int(os.environ.get("REPRO_BENCH_GRAPH_NODES", "1100000"))
AVG_DEGREE = int(os.environ.get("REPRO_BENCH_GRAPH_DEGREE", "8"))
NUM_RR_SETS = int(
    os.environ.get("REPRO_BENCH_GRAPH_RR", str(max(20_000, NUM_NODES // 10)))
)
NUM_SEEDS = 50
FORWARD_SAMPLES = 32

#: Legacy-path comparison (and exact in-memory parity) only below this —
#: read_edge_list builds per-line Python tuples and a Python dedup dict,
#: which at millions of edges is exactly the cost this PR removes.
SMALL_SCALE_NODES = 300_000

MIN_SPEEDUP = min_speedup(1.3)

try:
    _CORES = len(os.sched_getaffinity(0))
except AttributeError:  # pragma: no cover - non-Linux fallback
    _CORES = os.cpu_count() or 1
NUM_PROCESSES = max(2, min(8, _CORES))


def _peak_rss_mb() -> float:
    """Peak RSS of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(fn):
    """Run ``fn`` under an obs stopwatch; returns ``(result, seconds)``."""
    tick = {}
    with obs.stopwatch(tick):
        result = fn()
    return result, tick["seconds"]


def _write_edge_list(path: Path, n: int, m: int, seed: int) -> int:
    """Stream a synthetic unweighted SNAP-style edge list to ``path``.

    Uniform random endpoints, so the file naturally contains self-loops
    and duplicate edges for the ingester to clean.  Returns the number of
    edge records written.
    """
    rng = np.random.default_rng(seed)
    chunk = 1_000_000
    with open(path, "w") as f:
        f.write("# synthetic SNAP-style edge list (bench_graph_scale)\n")
        f.write(f"# nodes {n} edges {m}\n")
        written = 0
        while written < m:
            take = min(chunk, m - written)
            u = rng.integers(0, n, take)
            v = rng.integers(0, n, take)
            f.write(
                "\n".join(f"{a} {b}" for a, b in zip(u.tolist(), v.tolist()))
            )
            f.write("\n")
            written += take
    return m


def _reference_graph(path: Path, n: int) -> InfluenceGraph:
    """Independent in-memory construction: dense ids + WC weighting."""
    pairs = np.loadtxt(path, dtype=np.int64, comments="#")
    u, v = pairs[:, 0], pairs[:, 1]
    keep = u != v
    u, v = u[keep], v[keep]
    in_deg = np.bincount(v, minlength=n)
    probs = 1.0 / in_deg[v]
    return InfluenceGraph(n, zip(u.tolist(), v.tolist(), probs.tolist()))


def _forward_estimate(graph, seeds, backend_processes):
    shutdown_pool()
    get_pool(backend_processes)
    try:
        return estimate_comic_spread(
            graph,
            ComICModel(0.1, 0.3, 0.1, 0.3),
            seeds,
            [],
            item=0,
            num_samples=FORWARD_SAMPLES,
            ctx=EngineContext.create(backend="parallel", seed=7),
        )
    finally:
        pool = get_pool()
        stats = pool.stats()
        segments = list(pool.segment_names)
        shutdown_pool()
        _forward_estimate.last = (stats, segments)


def _run_pipeline(tmp_dir: Path) -> dict:
    edge_path = tmp_dir / "scale.txt"
    graph_path = tmp_dir / "scale.graph"
    row = {
        "nodes": NUM_NODES,
        "avg_degree": AVG_DEGREE,
        "effective_cores": _CORES,
        "processes": NUM_PROCESSES,
    }

    records, gen_s = _timed(
        lambda: _write_edge_list(
            edge_path, NUM_NODES, NUM_NODES * AVG_DEGREE, seed=2026
        )
    )
    row["records"] = records
    row["generate_s"] = round(gen_s, 3)

    stats, ingest_s = _timed(
        lambda: ingest_edge_list(edge_path, graph_path)
    )
    row["edges"] = stats.num_edges
    row["self_loops"] = stats.self_loops
    row["duplicates"] = stats.duplicates
    row["ingest_s"] = round(ingest_s, 3)
    row["ingest_edges_per_s"] = int(records / ingest_s)
    row["graph_file_mb"] = round(graph_path.stat().st_size / 2**20, 1)

    graph, load_s = _timed(lambda: load_graph(graph_path))
    row["load_s"] = round(load_s, 4)
    # Full-array verification: mmap'd bytes hash to the recorded print.
    _, verify_s = _timed(
        lambda: load_graph(graph_path, verify=True)
    )
    row["verify_s"] = round(verify_s, 3)
    row["fingerprint"] = graph_fingerprint(graph)[:16]

    legacy_s = parity = None
    if NUM_NODES <= SMALL_SCALE_NODES:
        ref, _ = _timed(lambda: _reference_graph(edge_path, NUM_NODES))
        parity = graph_fingerprint(ref) == graph_fingerprint(graph)
        (legacy_graph, _), legacy_s = _timed(
            lambda: read_edge_list(edge_path)
        )
        del legacy_graph
        row["legacy_read_s"] = round(legacy_s, 3)
        row["ingest_speedup_vs_legacy"] = round(
            legacy_s / (ingest_s + load_s), 2
        )
    row["in_memory_parity"] = parity

    collection, rr_s = _timed(lambda: _sample_rr(graph))
    row["rr_sets"] = NUM_RR_SETS
    row["rr_s"] = round(rr_s, 3)

    _, index_s = _timed(collection.selection_arrays)
    (seeds, fraction), rounds_s = _timed(
        lambda: node_selection(collection, NUM_SEEDS)
    )
    row["seeds"] = NUM_SEEDS
    row["covered_sets"] = round(fraction * collection.num_sets)
    row["index_s"] = round(index_s, 3)
    row["rounds_s"] = round(rounds_s, 3)

    pooled, forward_s = _timed(
        lambda: _forward_estimate(graph, list(seeds), NUM_PROCESSES)
    )
    pool_stats, segments = _forward_estimate.last
    inline, _ = _timed(
        lambda: _forward_estimate(graph, list(seeds), 0)
    )
    row["forward_samples"] = FORWARD_SAMPLES
    row["forward_s"] = round(forward_s, 3)
    row["forward_estimate"] = round(pooled, 3)
    row["forward_identical"] = bool(pooled == inline)
    row["pool_tasks"] = pool_stats["tasks_dispatched"]
    row["shm_segments"] = len(segments)
    row["peak_rss_mb"] = round(_peak_rss_mb(), 1)
    return row


def _sample_rr(graph):
    collection = RRCollection(
        graph, ctx=EngineContext.create(backend="batched", seed=11)
    )
    collection.extend_to(NUM_RR_SETS)
    return collection


def _run_scale_bench() -> list:
    import tempfile

    with tempfile.TemporaryDirectory(prefix="repro-graph-scale-") as tmp:
        return [_run_pipeline(Path(tmp))]


def _check_row(row: dict) -> None:
    assert row["forward_identical"], row
    assert row["shm_segments"] == 0, row
    assert row["pool_tasks"] >= min(FORWARD_SAMPLES, FORWARD_SHARDS), row
    if row["nodes"] <= SMALL_SCALE_NODES:
        assert row["in_memory_parity"], row
        if row["effective_cores"] >= 1:
            assert row["ingest_speedup_vs_legacy"] >= MIN_SPEEDUP, row


def test_graph_scale(benchmark):
    rows = run_once(benchmark, _run_scale_bench)
    record(
        "graph_scale",
        rows,
        header="streaming ingest -> mmap'd .graph -> RR sets -> forward",
    )
    JSON_PATH.write_text(json.dumps(rows, indent=2) + "\n")
    for row in rows:
        _check_row(row)


if __name__ == "__main__":
    results = _run_scale_bench()
    print(json.dumps(results, indent=2))
    JSON_PATH.write_text(json.dumps(results, indent=2) + "\n")
    for row in results:
        _check_row(row)
