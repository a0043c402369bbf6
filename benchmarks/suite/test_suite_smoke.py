"""Smoke test of the benchmark suite at toy size.

Runs every workload through ``run.py`` (fresh child process, toy sizes,
about a second of measuring) untraced and traced, and checks that each
run passes its own correctness checks and reports every metric
``BENCHMARK.json`` names, with its unit.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

SUITE_DIR = Path(__file__).resolve().parent
SPEC = json.loads((SUITE_DIR.parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_shape():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert SPEC["paths"] == ["benchmarks/suite"]
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(
        UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
        for m in SPEC["end_to_end"] + SPEC["per_layer"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_at_toy_size(workload, trace, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SUITE_DIR / "run.py"), "--toy",
         "--workload", workload, "--seed", "99", "--seconds", "1.2",
         "--trace", str(trace), "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert (tmp_path / f"{workload}.99.trace.json").exists()
