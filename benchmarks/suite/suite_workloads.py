"""The suite's four workloads and the one function that runs any of them.

Workload names are fixed: later changes refer to them, and
``BENCHMARK.json`` records why each exists.  ``full`` sizes are what
``run.py`` measures; ``toy`` sizes let the smoke test run every workload
end to end in seconds.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict

from repro import obs
from suite_common import REPO_ROOT, WORK_DIR, RunResult, welfare_reference
from suite_pipeline import (
    BundleGRDPipeline,
    PipelineSize,
    RRSimPlusPipeline,
    run_pipeline,
)
from suite_serve import ServeSize, run_serve
from suite_trace import write_trace

BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"


@dataclass(frozen=True)
class Workload:
    run: Callable[..., RunResult]
    full: object
    toy: object


def _pipeline(make):
    def run(*args):
        return run_pipeline(make(), *args)

    return run


WORKLOADS: Dict[str, Workload] = {
    "bundlegrd_200k": Workload(
        run=_pipeline(lambda: BundleGRDPipeline(6)),
        full=PipelineSize(nodes=200_000, worlds=200),
        toy=PipelineSize(nodes=2_000, worlds=50),
    ),
    "welfare_20k": Workload(
        run=_pipeline(lambda: BundleGRDPipeline(8)),
        full=PipelineSize(nodes=20_000, worlds=2_000),
        toy=PipelineSize(nodes=2_000, worlds=50),
    ),
    "comic_20k": Workload(
        run=_pipeline(RRSimPlusPipeline),
        full=PipelineSize(nodes=20_000, worlds=2_000),
        toy=PipelineSize(nodes=2_000, worlds=50),
    ),
    "serve_200k": Workload(
        run=run_serve,
        full=ServeSize(nodes=200_000, estimation_sets=50_000, reload_every_s=5.0),
        toy=ServeSize(nodes=2_000, estimation_sets=2_000, reload_every_s=0.5),
    ),
}


def benchmark_spec() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def execute(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    results_dir: Path,
    toy: bool = False,
) -> dict:
    """Run one workload; returns the result object ``run.py`` prints,
    plus ``welfare`` (value and Monte-Carlo stderr), which only the
    result file keeps.

    Untraced runs report every end-to-end metric of ``BENCHMARK.json``,
    traced runs every per-layer metric (0 for a layer the workload does
    not exercise).  Failed checks go to stderr and make ``correct`` false.
    """
    workload = WORKLOADS[name]
    spec = benchmark_spec()
    workdir = WORK_DIR / f"{name}.{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    if trace:
        obs.enable_tracing()
    # The reference describes the full-size graph; toy sizes have none.
    reference = None if toy else welfare_reference(name)
    try:
        result = workload.run(
            workload.toy if toy else workload.full, workdir, seed, seconds,
            trace, reference,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        write_trace(
            results_dir / f"{name}.{seed}.trace.json", result.roots,
            workload=name, seed=seed,
        )
    metrics = {}
    for metric in spec["per_layer" if trace else "end_to_end"]:
        value = result.metrics.get(metric["name"], 0.0 if trace else None)
        if value is None or not math.isfinite(value):
            result.fail(f"metric {metric['name']} was not measured: {value}")
            continue
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    for line in result.failures:
        sys.stderr.write(f"[{name}] FAILED: {line}\n")
    return {
        "correct": not result.failures and result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
        "welfare": {
            "value": result.metrics.get("welfare"),
            "stderr": result.welfare_stderr,
        },
    }
