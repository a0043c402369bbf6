"""Batched KPT estimation + GAP-aware Com-IC sampling benchmark.

Compares the two RR backends on the phases this PR vectorized:

* **kpt** — TIM's ``KptEstimation`` (width-based geometric rounds) on a
  near-critical fixed-probability graph, the regime where per-set Python
  overhead dominates the sequential path.  It runs the Com-IC baselines'
  ``_estimate_kpt`` over a GAP sampler whose adoption coins are both 1, so
  every set is a plain IC RR set.  The batched path generates each round
  ``c_i`` as one vectorized sampler call and computes all widths with one
  ``rr_set_widths`` pass.
* **comic** — RR-SIM+ end to end (IMM for the fixed item, GAP-aware KPT
  estimation, θ-phase GAP sampling, greedy max coverage), sequential vs
  batched, on a 1k-node WC graph.

Writes ``BENCH_comic_kpt.json`` at the repository root (plus the usual
``benchmarks/results`` artifact) to extend the performance trajectory
started by ``BENCH_rrset_engine.json``.

The acceptance gate asserted here: both rows at least ``MIN_SPEEDUP``
(default 3x; the acceptance criterion) faster batched than sequential.
CI relaxes the bound via ``REPRO_BENCH_MIN_SPEEDUP`` because wall-clock
ratios on shared runners are noisy.
"""

import json
import time
from pathlib import Path

import numpy as np

from _bench_utils import min_speedup, record, run_once
from repro.baselines._comic_common import _GapSampler, _estimate_kpt
from repro.baselines.rr_sim import rr_sim_plus
from repro.engine import EngineContext
from repro.diffusion.comic import ComICModel
from repro.graph.generators import erdos_renyi, random_wc_graph
from repro.graph.weighting import fixed_probability

REPO_ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_comic_kpt.json"

#: Minimum batched-over-sequential speedup asserted on every row.
MIN_SPEEDUP = min_speedup(3.0)

#: KPT estimation repetitions (small absolute timings; summed for stability).
KPT_REPS = 3

GAP = ComICModel(0.5, 0.84, 0.5, 0.84)


def _time_kpt(graph, k, backend):
    elapsed = 0.0
    used_total = 0
    for rep in range(KPT_REPS):
        sampler = _GapSampler(
            graph, q_plain=1.0, q_boosted=1.0,
            ctx=EngineContext.create(
                backend=backend, rng=np.random.default_rng(100 + rep)
            ),
        )
        t0 = time.perf_counter()
        _, used = _estimate_kpt(graph, k, 1.0, sampler)
        elapsed += time.perf_counter() - t0
        used_total += used
    return elapsed, used_total


def _time_comic(graph, budgets, backend):
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    result = rr_sim_plus(
        graph, GAP, budgets, num_forward_worlds=5,
        ctx=EngineContext.create(backend=backend, rng=rng),
    )
    return time.perf_counter() - t0, result.num_rr_sets


def _run_comparison():
    rows = []

    # Row 1: TIM KPT estimation, width-based geometric rounds.
    arcs = erdos_renyi(10_000, 10, seed=5)
    kpt_graph = fixed_probability(10_000, arcs, 0.09)
    seq_s, seq_sets = _time_kpt(kpt_graph, 50, "sequential")
    bat_s, bat_sets = _time_kpt(kpt_graph, 50, "batched")
    rows.append(
        {
            "phase": "kpt",
            "graph": "er_10k_p0.09",
            "nodes": kpt_graph.num_nodes,
            "rr_sets_seq": seq_sets,
            "rr_sets_bat": bat_sets,
            "seq_s": round(seq_s, 3),
            "bat_s": round(bat_s, 3),
            "speedup": round(seq_s / bat_s, 2),
        }
    )

    # Row 2 (gate): RR-SIM+ end to end — IMM + GAP-aware KPT + θ sampling
    # + greedy max coverage.
    comic_graph = random_wc_graph(1_000, avg_degree=6, seed=23)
    seq_s, seq_sets = _time_comic(comic_graph, (10, 10), "sequential")
    bat_s, bat_sets = _time_comic(comic_graph, (10, 10), "batched")
    rows.append(
        {
            "phase": "comic",
            "graph": "wc_1k",
            "nodes": comic_graph.num_nodes,
            "rr_sets_seq": seq_sets,
            "rr_sets_bat": bat_sets,
            "seq_s": round(seq_s, 3),
            "bat_s": round(bat_s, 3),
            "speedup": round(seq_s / bat_s, 2),
        }
    )
    return rows


def test_comic_kpt_speedup(benchmark):
    rows = run_once(benchmark, _run_comparison)
    record("comic_kpt", rows, header="sequential vs batched KPT + Com-IC GAP")
    JSON_PATH.write_text(json.dumps(rows, indent=2) + "\n")

    for row in rows:
        # Acceptance gate: batched >= MIN_SPEEDUP on both phases.
        assert row["speedup"] >= MIN_SPEEDUP, row
        # Both backends draw comparable sample counts (same θ discipline).
        assert 0.5 < row["rr_sets_bat"] / row["rr_sets_seq"] < 2.0, row


if __name__ == "__main__":
    results = _run_comparison()
    print(json.dumps(results, indent=2))
    JSON_PATH.write_text(json.dumps(results, indent=2) + "\n")
