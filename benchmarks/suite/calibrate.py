"""Calibrate the suite: welfare references and run-to-run spreads.

    python3 benchmarks/suite/calibrate.py

Makes ``RUNS`` untraced runs of every workload at each of ``SEEDS`` and
writes ``reference.json`` beside this file: per workload, the mean of
the welfare the seeds reported and the stderr of that mean.  ``run.py``
checks every later run against it (3% + 4 combined stderr); the graph
is the same at every seed, so one reference serves them all.  The old
file is removed first, so the calibration runs are not checked.

It then prints, per workload and end-to-end metric, the largest
quartile distance over the runs at one seed, as a share of the median,
against the metric's ``BENCHMARK.json`` bound.  A spread above its
allowance (see ``compare.py``) is flagged: lengthen that metric's run or
move it to the per-layer list.  Never widen the bound.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

from compare import allowance, quartiles

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parent.parent
REFERENCE = SUITE_DIR / "reference.json"
OUT = SUITE_DIR / "results" / "calibrate"
RUNS = 5
SEEDS = (2026, 7)


def _run(workload: str, seed: int, out: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(SUITE_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0", "--out", str(out)],
        stdout=subprocess.DEVNULL,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed; see stderr above")
    return json.loads((out / f"{workload}.{seed}.e2e.json").read_text())


def main() -> int:
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    REFERENCE.unlink(missing_ok=True)

    reference, status = {}, 0
    for workload in workloads:
        welfare, stderr, spreads = [], [], {}
        for seed in SEEDS:
            runs = [_run(workload, seed, OUT / f"{seed}-{run}")
                    for run in range(RUNS)]
            seen = {r["welfare"]["value"] for r in runs}
            if len(seen) != 1:
                raise SystemExit(f"{workload} seed {seed}: welfare differs "
                                 f"between runs: {sorted(seen)}")
            welfare.append(seen.pop())
            stderr.append(runs[0]["welfare"]["stderr"])
            for metric, bound in bounds.items():
                q1, q2, q3 = quartiles(
                    [r["metrics"][metric]["value"] for r in runs]
                )
                share = (q3 - q1) / abs(q2)
                if q3 - q1 > allowance(metric, bound, q2):
                    status = 1
                    print(f"{workload} seed {seed} {metric}: spread "
                          f"{share:.4f} exceeds its allowance")
                spreads[metric] = max(share, spreads.get(metric, 0.0))
        reference[workload] = {
            "welfare": sum(welfare) / len(welfare),
            "stderr": math.sqrt(sum(s * s for s in stderr)) / len(stderr),
        }
        for metric, share in spreads.items():
            print(f"{workload:<15} {metric:<14} spread {share:.4f} "
                  f"bound {bounds[metric]}")

    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
