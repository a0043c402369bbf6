"""Run the benchmark suite; see README.md in this directory.

    python3 benchmarks/suite/run.py --workload bundlegrd_200k --seed 2026
    python3 benchmarks/suite/run.py --seed 2026            # all workloads
    python3 benchmarks/suite/run.py --seed 2026 --trace 1  # per-layer

Each workload runs in a fresh child process whose environment holds no
``REPRO_*`` variable, with ``src/`` of this checkout on its path.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (every end-to-end metric of
``BENCHMARK.json`` untraced, every per-layer metric with ``--trace 1``).
The result file under ``--out`` also keeps the run's welfare and its
stderr.  The exit status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parent.parent
WORKLOADS = ("bundlegrd_200k", "welfare_20k", "comic_20k", "serve_200k")
#: A run must end within 180 s; the child is stopped a little before.
CHILD_TIMEOUT_S = 170


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: BENCHMARK.json "
                        "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=SUITE_DIR / "results",
                        help="directory for result and trace files")
    # Internal: run the workload in this process (the child side).
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    # Internal: toy sizes, for the smoke test.
    parser.add_argument("--toy", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        args.seconds = float(spec["run_seconds"])
    return args


def _child(args) -> int:
    from suite_workloads import execute

    result = execute(
        args.workload, args.seed, args.seconds, bool(args.trace), args.out,
        toy=args.toy,
    )
    args.out.mkdir(parents=True, exist_ok=True)
    suffix = "layers" if args.trace else "e2e"
    (args.out / f"{args.workload}.{args.seed}.{suffix}.json").write_text(
        json.dumps(result, indent=1) + "\n"
    )
    printed = ("correct", "attempted", "failed", "metrics")
    sys.stdout.write(json.dumps({key: result[key] for key in printed}) + "\n")
    return 0 if result["correct"] else 1


def _spawn(args, workload: str):
    """Run one workload in a clean child; returns (exit code, stdout)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(SUITE_DIR)]
    )
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(args.out),
    ] + (["--toy"] if args.toy else [])
    # A session of its own, so a timeout also stops the server it started.
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.stderr.write(f"[{workload}] stopped after {CHILD_TIMEOUT_S} s\n")
        return 1, ""
    return proc.returncode, out


def main(argv=None) -> int:
    args = _parse(argv)
    if args.child:
        return _child(args)
    if not (REPO_ROOT / "src" / "repro").is_dir():
        # Measure this checkout's program, never an installed copy.
        sys.stderr.write(f"no program source under {REPO_ROOT / 'src'}\n")
        return 1
    if args.workload != "all":
        code, out = _spawn(args, args.workload)
        sys.stdout.write(out)
        return code
    summary, worst = {}, 0
    for workload in WORKLOADS:
        code, out = _spawn(args, workload)
        worst = max(worst, code)
        if not out.strip():
            summary[workload] = None
            continue
        res = summary[workload] = json.loads(out.strip().splitlines()[-1])
        sys.stdout.write(
            f"{workload}: correct={res['correct']} "
            f"attempted={res['attempted']} failed={res['failed']}\n"
        )
        for name, metric in res["metrics"].items():
            sys.stdout.write(
                f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}\n"
            )
    sys.stdout.write(json.dumps(summary) + "\n")
    return worst


if __name__ == "__main__":
    sys.exit(main())
