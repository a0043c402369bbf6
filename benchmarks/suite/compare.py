"""Compare two result sets of the suite, metric by metric.

    python3 benchmarks/suite/compare.py RESULTS_A RESULTS_B
    python3 benchmarks/suite/compare.py RESULTS_A        # one set: spreads

A result set is a directory of ``<workload>.<seed>.e2e.json`` (untraced)
and ``<workload>.<seed>.layers.json`` (traced) files, as ``run.py --out``
writes them.  For each (workload, metric) the report gives each side's
median and quartiles (``statistics.quantiles(n=4)``) and marks:

* ``worse``      B's median moved past the metric's allowance in its
  worse direction;
* ``unresolved`` either side's quartile distance exceeds the allowance;
* ``mismatch``   a count metric differs at all on a seed both sets ran.

A metric's allowance is its ``BENCHMARK.json`` bound times the median,
but never less than its absolute floor in ``FLOORS``.  Per-layer metrics
have no bound, so they are only reported.  With one set, each
end-to-end quartile distance is shown against a third of its allowance.
The exit status is 1 when anything is marked.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parent.parent
#: Per-layer counts that are a pure function of (workload, seed).
COUNT_METRICS = ("rrset.theta_final", "core.allocation_pairs",
                 "baselines.gap_sets")
#: Absolute floors under the relative bounds.  Set-up of the 20k-node
#: workloads takes about 0.3 s, so a share of it is a few scheduler ticks.
FLOORS = {"setup_s": 0.2}

Values = Dict[Tuple[str, str], Dict[int, float]]


def load_set(directory: Path) -> Tuple[Values, int, int]:
    """(workload, metric) -> {seed: value}, plus attempted/failed totals."""
    values: Values = {}
    attempted = failed = 0
    for path in sorted(directory.glob("*.json")):
        parts = path.name.split(".")
        if len(parts) != 4 or parts[2] not in ("e2e", "layers"):
            continue
        workload, seed = parts[0], int(parts[1])
        result = json.loads(path.read_text())
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault((workload, name), {})[seed] = metric["value"]
    return values, attempted, failed


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def allowance(metric: str, bound: float, median: float) -> float:
    """How far ``metric`` may move from ``median``: the bound's share of
    it, or the metric's absolute floor if that is larger."""
    return max(bound * abs(median), FLOORS.get(metric, 0.0))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("sets", nargs="+", type=Path, metavar="RESULTS")
    args = parser.parse_args(argv)
    if len(args.sets) > 2:
        parser.error("give one or two result sets")
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    better.update({m["name"]: m["better"] for m in spec["per_layer"]})
    loaded = [load_set(path) for path in args.sets]
    for path, (_, attempted, failed) in zip(args.sets, loaded):
        print(f"{path}: attempted={attempted} failed={failed}")
    marked = sum(failed for _, _, failed in loaded)
    keys = sorted(set().union(*(values.keys() for values, _, _ in loaded)))
    for workload, metric in keys:
        sides = [values.get((workload, metric), {}) for values, _, _ in loaded]
        if not all(sides):
            print(f"{workload:<15} {metric:<28} missing from a set")
            marked += 1
            continue
        stats = [quartiles(list(side.values())) for side in sides]
        cells = [f"{q2:>12.5g} [{q1:.5g}, {q3:.5g}] n={len(side)}"
                 for (q1, q2, q3), side in zip(stats, sides)]
        marks = []
        bound = bounds.get(metric)
        if bound is not None:
            slack = [allowance(metric, bound, q2) for _, q2, _ in stats]
            iqr = [q3 - q1 for q1, _, q3 in stats]
            if len(sides) == 1 and iqr[0] > slack[0] / 3:
                marks.append("spread > allowance/3")
            elif any(i > s for i, s in zip(iqr, slack)):
                marks.append("unresolved")
            cells.append("spread " + "/".join(
                f"{i / abs(q2) if q2 else 0.0:.3f}"
                for i, (_, q2, _) in zip(iqr, stats)
            ) + f" bound {bound}")
        if len(sides) == 2:
            a, b = stats[0][1], stats[1][1]
            change = b - a if better[metric] == "lower" else a - b
            if bound is not None and change > allowance(metric, bound, a):
                marks.append("worse")
            if metric in COUNT_METRICS:
                common = set(sides[0]) & set(sides[1])
                if any(sides[0][s] != sides[1][s] for s in common):
                    marks.append("mismatch")
            cells.append(f"worsened {change / abs(a) if a else 0.0:+.3f}")
        marked += len(marks)
        print(f"{workload:<15} {metric:<28} " + "  ".join(cells)
              + ("  <- " + ", ".join(marks) if marks else ""))
    return 1 if marked else 0


if __name__ == "__main__":
    sys.exit(main())
