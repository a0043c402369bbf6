"""RR-set engine benchmark: legacy pre-refactor pipeline vs batched engine.

Compares end-to-end RR-set *generation + NodeSelection* between

* **legacy** — a faithful reconstruction of the seed-commit pipeline
  (commit eefbe22): per-set Python reverse BFS via ``generate_rr_set``,
  list-of-arrays storage, per-element inverted-index list appends, and the
  per-element greedy selection loop.  The current ``sequential`` backend
  already benefits from the flat-CSR storage refactor, so it is *not* the
  legacy baseline — the old pipeline is reconstructed here verbatim.
* **batched** — the ``batched`` backend's flat-frontier sampling plus the
  vectorized greedy (segmented gather + bincount updates).

Writes ``BENCH_rrset_engine.json`` at the repository root with per-graph
rows (nodes, sets/sec for both paths, speedups) to seed the performance
trajectory, alongside the usual ``benchmarks/results`` artifact.

The acceptance gate asserted here: on the >= 20k-node generated graph the
batched pipeline is at least 5x faster end to end than the legacy
pipeline, and both pipelines pick seed sets of equivalent coverage
quality (same collection distribution, same greedy contract).
"""

import json
import time
from pathlib import Path

import numpy as np

from _bench_utils import min_speedup, record, run_once
from repro.engine import EngineContext
from repro.graph.generators import erdos_renyi, random_wc_graph
from repro.graph.weighting import fixed_probability
from repro.rrset.node_selection import node_selection
from repro.rrset.rrgen import RRCollection, generate_rr_set

REPO_ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_rrset_engine.json"

RNG_SEED = 17

#: Minimum end-to-end speedup asserted on the gate row.  5x locally (the
#: acceptance criterion; typically 6-10x on a quiet machine); CI sets a
#: conservative bound via the env knob because wall-clock ratios on shared
#: runners are noisy.
MIN_SPEEDUP = min_speedup(5.0)


def _legacy_pipeline(graph, num_sets, k):
    """The seed-commit pipeline, reconstructed: list storage + Python greedy."""
    n = graph.num_nodes
    rng = np.random.default_rng(RNG_SEED)
    t0 = time.perf_counter()
    sets = []
    index = [[] for _ in range(n)]
    cover_counts = np.zeros(n, dtype=np.int64)
    for _ in range(num_sets):
        rr = generate_rr_set(graph, rng)
        rr_id = len(sets)
        sets.append(rr)
        for u in rr:
            u = int(u)
            index[u].append(rr_id)
            cover_counts[u] += 1
    gen_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    gains = cover_counts.copy()
    covered = np.zeros(num_sets, dtype=bool)
    seeds = []
    covered_total = 0
    for _ in range(min(k, n)):
        u = int(np.argmax(gains))
        seeds.append(u)
        if gains[u] > 0:
            for rr_id in index[u]:
                if covered[rr_id]:
                    continue
                covered[rr_id] = True
                covered_total += 1
                for w in sets[rr_id]:
                    gains[int(w)] -= 1
        gains[u] = -1
    sel_seconds = time.perf_counter() - t0
    return {
        "gen_seconds": gen_seconds,
        "sel_seconds": sel_seconds,
        "total_seconds": gen_seconds + sel_seconds,
        "fraction": covered_total / num_sets,
    }


def _batched_pipeline(graph, num_sets, k):
    rng = np.random.default_rng(RNG_SEED)
    t0 = time.perf_counter()
    coll = RRCollection(
        graph, ctx=EngineContext.create(backend="batched", rng=rng)
    )
    coll.generate(num_sets)
    gen_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    _, fraction = node_selection(coll, k)
    sel_seconds = time.perf_counter() - t0
    return {
        "gen_seconds": gen_seconds,
        "sel_seconds": sel_seconds,
        "total_seconds": gen_seconds + sel_seconds,
        "fraction": fraction,
    }


def _graphs():
    """(label, graph, num_sets, k) rows; the last row is the gate."""
    yield (
        "wc_5k",
        random_wc_graph(5_000, avg_degree=8, seed=5),
        10_000,
        50,
    )
    # Near-critical fixed-probability weighting: RR sets average ~10 nodes,
    # the regime where per-node Python overhead dominates the legacy path.
    arcs = erdos_renyi(20_000, 10, seed=5)
    yield ("er_20k_p0.09", fixed_probability(20_000, arcs, 0.09), 10_000, 100)


def _run_engine_comparison():
    # Warm both paths once (allocator + numpy caches) so the measured rows
    # reflect steady-state throughput rather than first-touch costs.
    warm = random_wc_graph(1_000, avg_degree=6, seed=1)
    _legacy_pipeline(warm, 500, 5)
    _batched_pipeline(warm, 500, 5)

    rows = []
    for label, graph, num_sets, k in _graphs():
        legacy = _legacy_pipeline(graph, num_sets, k)
        batched = _batched_pipeline(graph, num_sets, k)
        rows.append(
            {
                "graph": label,
                "nodes": graph.num_nodes,
                "edges": graph.num_edges,
                "rr_sets": num_sets,
                "k": k,
                "legacy_sets_per_sec": round(
                    num_sets / legacy["gen_seconds"], 1
                ),
                "batched_sets_per_sec": round(
                    num_sets / batched["gen_seconds"], 1
                ),
                "legacy_total_s": round(legacy["total_seconds"], 3),
                "batched_total_s": round(batched["total_seconds"], 3),
                "speedup_gen": round(
                    legacy["gen_seconds"] / batched["gen_seconds"], 2
                ),
                "speedup_total": round(
                    legacy["total_seconds"] / batched["total_seconds"], 2
                ),
                "legacy_fraction": round(legacy["fraction"], 4),
                "batched_fraction": round(batched["fraction"], 4),
            }
        )
    return rows


def test_rrset_engine_speedup(benchmark):
    rows = run_once(benchmark, _run_engine_comparison)
    record("rrset_engine", rows, header="legacy vs batched RR engine")
    JSON_PATH.write_text(json.dumps(rows, indent=2) + "\n")

    big = rows[-1]
    assert big["nodes"] >= 20_000
    # Acceptance gate: >= MIN_SPEEDUP end-to-end on the large generated graph.
    assert big["speedup_total"] >= MIN_SPEEDUP, big
    # Both paths select seed sets of equivalent coverage quality.
    for row in rows:
        assert row["batched_fraction"] >= 0.8 * row["legacy_fraction"]


if __name__ == "__main__":
    results = _run_engine_comparison()
    print(json.dumps(results, indent=2))
    JSON_PATH.write_text(json.dumps(results, indent=2) + "\n")
