"""Benchmark-side spans and the suite's trace files.

The suite opens its own ``repro.obs`` spans around each public call into
a layer (``bench=True`` marks them); the program's internal spans
(``rrset.prima.search``, ``rrset.generate``, ...) land underneath in the
same tree for diagnosis, but no metric reads them.

Self time is a span's duration minus the time its children cover.  The
suite only opens spans from one thread, one after another, so a span's
children never overlap and "covered" is the sum of their durations.

Print a trace file as an indented tree with self times::

    python benchmarks/suite/suite_trace.py benchmarks/suite/results/<file>
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List

from repro import obs


def bench_span(name: str, **attrs: Any):
    """A span opened by the benchmark (no-op while tracing is off)."""
    return obs.span(name, bench=True, **attrs)


def seconds(span) -> float:
    """A finished span's duration; 0.0 for the no-op span."""
    return float(span.duration_s or 0.0)


def covered_fraction(root) -> float:
    """Share of ``root``'s wall time that its direct children cover."""
    total = seconds(root)
    if total <= 0.0:
        return 0.0
    return sum(seconds(child) for child in root.children) / total


def write_trace(path: Path, roots: Iterable, **meta: Any) -> None:
    """Write finished span trees (oldest first) with run metadata."""
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = dict(meta, roots=[root.to_dict() for root in roots])
    path.write_text(json.dumps(payload, indent=1) + "\n")


def _self_s(node: Dict[str, Any]) -> float:
    own = node.get("duration_s") or 0.0
    return own - sum(c.get("duration_s") or 0.0 for c in node["children"])


def render(node: Dict[str, Any], depth: int = 0) -> List[str]:
    """One line per span: name, duration, self time, attributes."""
    attrs = " ".join(
        f"{key}={value}"
        for key, value in sorted(node.get("attrs", {}).items())
        if key != "bench"
    )
    marker = "*" if node.get("attrs", {}).get("bench") else " "
    lines = [
        f"{'  ' * depth}{marker}{node['name']} "
        f"{node.get('duration_s') or 0.0:.4f}s self={_self_s(node):.4f}s "
        f"{attrs}".rstrip()
    ]
    for child in node["children"]:
        lines.extend(render(child, depth + 1))
    return lines


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        sys.stderr.write("usage: suite_trace.py TRACE_JSON\n")
        return 2
    payload = json.loads(Path(argv[0]).read_text())
    sys.stdout.write(
        f"workload={payload.get('workload')} seed={payload.get('seed')} "
        "(* = benchmark span)\n"
    )
    for root in payload["roots"]:
        sys.stdout.write("\n".join(render(root)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
