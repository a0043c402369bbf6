"""Shared pieces of the benchmark suite: inputs, set-up and metric helpers.

Every workload makes its inputs from the run's ``--seed``: a SNAP-style
edge list with ``ARCS_PER_NODE`` arcs per node, uniform sources and
targets drawn proportional to ``rank ** -0.8`` (heavy-tailed in-degree,
the shape of the paper's social networks).  The
program receives only the generated file: ``repro.graph.bigcsr`` ingests
it (weighted-cascade probabilities) and memory-maps the result.

The graph's structure is fixed per size (``GRAPH_SEED``), as the paper's
datasets are; the run's seed draws the node labels and the arc order,
so each seed hands the program a different file of the same graph, and
seeds every random choice of the engine.  So one welfare reference per
workload holds at every seed.  With the structure drawn from the seed
too, welfare on ``welfare_20k`` moved by 4-5% between seeds, more than
the 3% its reference check allows.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.engine import EngineContext
from repro.graph.bigcsr import ingest_edge_list, load_graph
from suite_trace import bench_span

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parent.parent
WORK_DIR = SUITE_DIR / "work"

ARCS_PER_NODE = 8
TARGET_EXPONENT = 0.8
#: Seed of the graph's structure; the run's seed only relabels it.
GRAPH_SEED = 1
#: Set-up runs this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: The paper's PRIMA/IMM parameters.
EPSILON = 0.5
ELL = 1.0

REFERENCE_PATH = SUITE_DIR / "reference.json"
#: Relative slack of the welfare reference check, for the spread of
#: welfare across RR-sampling seeds on one graph.  Sampling error is
#: added on top as 4 combined stderr.  Over 60 seeds per workload the
#: largest deviation from the reference used 54% of this tolerance.
WELFARE_REL_SLACK = 0.03


@dataclass
class RunResult:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: Failed checks, one line each (empty when every check passed).
    failures: List[str] = field(default_factory=list)
    #: Metric name -> value; end-to-end and per-layer names together.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Standard error of ``metrics["welfare"]``: Monte-Carlo on the
    #: pipelines, binomial over RR sets on ``serve_200k``.
    welfare_stderr: Optional[float] = None
    #: Span roots to write into the trace file (traced runs only).
    roots: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failures.append(message)


def welfare_reference(workload: str) -> Optional[dict]:
    """The workload's entry in ``reference.json``, if calibrated.

    The graph is the same at every seed, so one reference per workload
    serves every seed of its full size.
    """
    if not REFERENCE_PATH.exists():
        return None
    return json.loads(REFERENCE_PATH.read_text()).get(workload)


def welfare_problems(
    mean: float, stderr: float, reference: Optional[dict]
) -> List[str]:
    """``mean`` must be a positive estimate within ``WELFARE_REL_SLACK``
    + 4 combined stderr of ``reference`` (when there is one)."""
    if not (math.isfinite(mean) and math.isfinite(stderr) and mean > 0.0):
        return [f"welfare {mean} ± {stderr} is not a positive estimate"]
    if reference is None:
        return []
    ref, ref_se = reference["welfare"], reference["stderr"]
    tolerance = WELFARE_REL_SLACK * abs(ref) + 4.0 * math.hypot(stderr, ref_se)
    if abs(mean - ref) > tolerance:
        return [f"welfare {mean:.2f} differs from the reference {ref:.2f} "
                f"by more than {tolerance:.2f}"]
    return []


def stream_seed(seed: int, stream: int) -> int:
    """An independent integer seed for one consumer of the run's seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def batched_context(seed: int, stream: int) -> EngineContext:
    """The engine context every workload uses: batched backend, pinned."""
    return EngineContext.create(
        backend="batched", seed=stream_seed(seed, stream)
    )


def peak_rss_mib() -> float:
    """This process's peak resident set size (Linux reports KiB) in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_ms(sorted_ms: Sequence[float]) -> float:
    """The p99, which needs 1000 samples to have ten beyond it.

    A pipeline run makes a handful of reps, too few for any tail: its
    "tail" is the median, so the metric reads the same as ``op_p50_ms``.
    """
    n = len(sorted_ms)
    if n >= 1000:
        return sorted_ms[math.ceil(0.99 * n) - 1]
    return statistics.median(sorted_ms)


def latency_metrics(ops_s: Sequence[float], window_s: float) -> Dict[str, float]:
    """``op_p50_ms``, ``op_tail_ms`` and ``ops_per_s`` of one run."""
    ms = sorted(1e3 * x for x in ops_s)
    return {
        "op_p50_ms": statistics.median(ms),
        "op_tail_ms": tail_ms(ms),
        "ops_per_s": len(ms) / window_s,
    }


def write_edge_list(path: Path, nodes: int, seed: int) -> int:
    """Write the run's SNAP-style edge list; returns the arc count.

    Sources are uniform; a target's rank ``r`` is drawn with probability
    proportional to ``r ** -TARGET_EXPONENT``.  Like real social graphs,
    many nodes get no in-arc or one.  ``GRAPH_SEED`` draws this
    structure; ``seed`` permutes the node labels and the arc order.
    """
    rng = np.random.default_rng(stream_seed(GRAPH_SEED, 0))
    arcs = nodes * ARCS_PER_NODE
    sources = rng.integers(0, nodes, size=arcs)
    weights = np.arange(1, nodes + 1, dtype=np.float64) ** -TARGET_EXPONENT
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    ranks = np.searchsorted(cdf, rng.random(arcs), side="right")
    targets = np.minimum(ranks, nodes - 1)
    shuffle = np.random.default_rng(stream_seed(seed, 0))
    labels = shuffle.permutation(nodes)
    order = shuffle.permutation(arcs)
    sources, targets = labels[sources[order]], labels[targets[order]]
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        out.write(f"# generated: nodes={nodes} arcs={arcs} seed={seed}\n")
        out.write(
            "\n".join(
                f"{u} {v}" for u, v in zip(sources.tolist(), targets.tolist())
            )
        )
        out.write("\n")
    return arcs


@dataclass
class GraphSetup:
    """The loaded graph plus the timings of its repeated set-up."""

    graph: object
    setup_s: List[float]
    ingest_s: List[float]
    load_s: List[float]
    records: int

    def layer_metrics(self) -> Dict[str, float]:
        ingest = statistics.median(self.ingest_s)
        return {
            "graph.ingest_s": ingest,
            "graph.edges_per_s": self.records / ingest,
            "graph.load_s": statistics.median(self.load_s),
        }


def setup_graph(workdir: Path, nodes: int, seed: int) -> GraphSetup:
    """Generate the edge list once, then ingest + load it SETUP_REPEATS times.

    Generation is the benchmark's own work and stays out of the timings;
    ingest and load are the program's set-up.
    """
    edges = workdir / "edges.txt"
    write_edge_list(edges, nodes, seed)
    graph_path = workdir / "graph.graph"
    setup_s, ingest_s, load_s = [], [], []
    graph, records = None, 0
    for repeat in range(SETUP_REPEATS):
        graph = None  # drop the previous mapping before re-ingesting
        with bench_span("setup", repeat=repeat):
            t0 = time.perf_counter()
            with bench_span("graph.ingest"):
                stats = ingest_edge_list(edges, graph_path, num_nodes=nodes)
            t1 = time.perf_counter()
            with bench_span("graph.load"):
                graph = load_graph(graph_path)
            t2 = time.perf_counter()
        records = stats.records
        ingest_s.append(t1 - t0)
        load_s.append(t2 - t1)
        setup_s.append(t2 - t0)
    return GraphSetup(graph, setup_s, ingest_s, load_s, records)
