"""The pipeline workloads: allocate seeds, then estimate UIC welfare.

One operation ("rep") is the program's whole answer to one campaign: an
allocation algorithm on the set-up graph, then ``estimate_welfare`` of
its allocation.  Every rep of a run uses the same engine seeds, so reps
must agree exactly (a determinism check) and their times differ only by
timing noise.

A traced run times one untraced rep first, then one traced rep in which
the public calls are split into layer spans, then replays the calls a
public call hides (PRIMA's final sampling phase, Com-IC's selection) on
the same sizes, each under its own span.
"""

from __future__ import annotations

import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.baselines._comic_common import comic_rr_sketch
from repro.baselines.rr_sim import rr_sim_plus
from repro.core.allocation import Allocation
from repro.core.bundlegrd import bundle_grd
from repro.diffusion.welfare import estimate_welfare
from repro.experiments.configs import multi_item_config, two_item_config
from repro.rrset.imm import imm
from repro.rrset.node_selection import greedy_max_coverage, node_selection
from repro.rrset.prima import prima
from repro.rrset.rrgen import RRCollection, build_inverted_index
from suite_common import (
    ELL,
    EPSILON,
    RunResult,
    batched_context,
    latency_metrics,
    peak_rss_mib,
    setup_graph,
    welfare_problems,
)
from suite_trace import bench_span, covered_fraction, seconds


@dataclass(frozen=True)
class PipelineSize:
    """Input size of a pipeline workload."""

    nodes: int
    #: Possible worlds simulated by ``estimate_welfare``.
    worlds: int


class BundleGRDPipeline:
    """bundleGRD (Algorithm 1, PRIMA at ε=0.5, ℓ=1) on a Table 4 config."""

    def __init__(self, config_id: int):
        config, budgets = multi_item_config(config_id, 5, 300, seed=0)
        self.model = config.model
        self.budgets = list(budgets)

    def solve(self, graph, seed: int) -> Tuple[Allocation, dict]:
        out = bundle_grd(
            graph, self.budgets, EPSILON, ELL, ctx=batched_context(seed, 1)
        )
        return out.allocation, {"order": out.seed_order}

    def check(self, allocation: Allocation, info: dict) -> List[str]:
        """Nested prefixes of one ordered list of distinct seeds, so the
        allocation has exactly Σ b_i pairs."""
        order = info["order"]
        b_max = max(self.budgets)
        problems = []
        if len(set(order[:b_max])) != b_max:
            problems.append("seed order repeats a node")
        expected = {
            (int(order[rank]), item)
            for item, budget in enumerate(self.budgets)
            for rank in range(budget)
        }
        if allocation.pairs != expected:
            problems.append("allocation is not nested prefixes of the order")
        return problems

    def traced_solve(self, graph, seed: int):
        """bundle_grd split into its PRIMA run and the allocation step."""
        ctx = batched_context(seed, 1)
        with bench_span("rrset.prima") as prima_span:
            res = prima(graph, self.budgets, EPSILON, ELL, ctx=ctx)
        with bench_span("core.allocate") as alloc_span:
            out = bundle_grd(
                graph, self.budgets, EPSILON, ELL,
                seed_order=res.seeds, ctx=ctx,
            )
        prima_s, alloc_s = seconds(prima_span), seconds(alloc_span)
        layers = {
            "rrset.prima_s": prima_s,
            "rrset.theta_search": res.num_rr_sets_search,
            "rrset.theta_final": res.num_rr_sets,
            "core.bundle_grd_s": prima_s + alloc_s,
            "core.allocate_s": alloc_s,
            "core.allocation_pairs": len(out.allocation),
        }
        info = {"order": out.seed_order, "theta": res.num_rr_sets}
        return out.allocation, info, prima_s + alloc_s, layers

    def replay(self, graph, seed: int, info: dict) -> Dict[str, float]:
        """PRIMA's final phase again: sample θ sets, index, select."""
        theta = info["theta"]
        collection = RRCollection(graph, ctx=batched_context(seed, 3))
        with bench_span("rrset.generate", count=theta) as gen_span:
            collection.extend_to(theta)
        with bench_span("rrset.index") as index_span:
            collection.selection_arrays()
        with bench_span("rrset.selection") as select_span:
            node_selection(collection, max(self.budgets))
        generate_s = seconds(gen_span)
        return {
            "rrset.generate_s": generate_s,
            "rrset.sets_per_s": theta / generate_s,
            "rrset.members_per_set": collection.total_width / theta,
            "rrset.index_s": seconds(index_span),
            "rrset.selection_s": seconds(select_span),
        }


class RRSimPlusPipeline:
    """RR-SIM+ (the paper's Com-IC baseline) on two-item config 2."""

    BUDGETS = (70, 90)
    SELECT_ITEM = 0
    FORWARD_WORLDS = 10

    def __init__(self):
        config = two_item_config(2)
        self.gap = config.gap
        self.model = config.model

    def solve(self, graph, seed: int) -> Tuple[Allocation, dict]:
        out = rr_sim_plus(
            graph, self.gap, self.BUDGETS, select_item=self.SELECT_ITEM,
            num_forward_worlds=self.FORWARD_WORLDS,
            ctx=batched_context(seed, 1),
        )
        return out.allocation, {"selected": out.seeds_selected_item}

    def check(self, allocation: Allocation, info: dict) -> List[str]:
        problems = []
        for item, budget in enumerate(self.BUDGETS):
            got = len(allocation.seeds_of_item(item))
            if got != budget:
                problems.append(f"item {item} has {got} seeds, budget {budget}")
        if len(set(info["selected"])) != len(info["selected"]):
            problems.append("selected seeds repeat a node")
        return problems

    def traced_solve(self, graph, seed: int):
        """rr_sim_plus split into IMM for the fixed item and the GAP sketch.

        Same calls on the same context as ``rr_sim_plus``; the run checks
        that the allocation equals the untraced rep's.
        """
        ctx = batched_context(seed, 1)
        other = 1 - self.SELECT_ITEM
        with bench_span("rrset.imm") as imm_span:
            fixed = imm(graph, self.BUDGETS[other], EPSILON, ELL, ctx=ctx).seeds
        with bench_span("baselines.comic_rr_sketch") as sketch_span:
            state = comic_rr_sketch(
                graph, self.gap, self.SELECT_ITEM, fixed,
                self.BUDGETS[self.SELECT_ITEM], EPSILON, ELL, ctx,
                self.FORWARD_WORLDS, False,
            )
        allocation = Allocation(
            [(v, other) for v in fixed]
            + [(v, self.SELECT_ITEM) for v in state.seeds],
            num_items=2,
        )
        solve_s = seconds(imm_span) + seconds(sketch_span)
        lengths = np.diff(state.offsets)
        layers = {
            "baselines.rr_sim_plus_s": solve_s,
            "baselines.gap_sets": state.theta,
            "baselines.gap_empty_frac": float(np.mean(lengths == 0)),
            "core.allocation_pairs": len(allocation),
        }
        info = {"selected": state.seeds, "state": state}
        return allocation, info, solve_s, layers

    def replay(self, graph, seed: int, info: dict) -> Dict[str, float]:
        """The sketch's greedy max-coverage again, split into its parts."""
        state = info.pop("state")
        n, k = graph.num_nodes, self.BUDGETS[self.SELECT_ITEM]
        members, offsets = state.members, state.offsets
        del state
        with bench_span("rrset.greedy_cov") as greedy_span:
            greedy_max_coverage(n, members, offsets, k)
        with bench_span("rrset.greedy_cov_index") as index_span:
            idx_sets, idx_indptr = build_inverted_index(members, offsets, n)
        # A (set, node) pair repeats iff one node's posting list holds the
        # same set id twice in a row (postings are sorted by set id).
        repeat = idx_sets[1:] == idx_sets[:-1]
        starts = idx_indptr[1:-1]
        repeat[starts[(starts > 0) & (starts < idx_sets.shape[0])] - 1] = False
        duplicates = int(np.count_nonzero(repeat))
        del repeat, starts
        collection = RRCollection.from_flat(
            graph, None, members, offsets,
            index=(idx_sets, idx_indptr), ctx=batched_context(seed, 3),
        )
        del idx_sets, idx_indptr
        with bench_span("rrset.greedy_cov_rounds") as rounds_span:
            node_selection(collection, k)
        greedy_s, index_s = seconds(greedy_span), seconds(index_span)
        return {
            "rrset.greedy_cov_s": greedy_s,
            "rrset.greedy_cov_index_s": index_s,
            "rrset.greedy_cov_dedupe_s": greedy_s - index_s
            - seconds(rounds_span),
            "rrset.dup_pair_frac": duplicates / max(1, members.shape[0]),
        }


def run_pipeline(
    pipeline,
    size: PipelineSize,
    workdir: Path,
    seed: int,
    run_seconds: float,
    trace: bool,
    reference: Optional[dict],
) -> RunResult:
    """Set up the graph, then time reps until ``run_seconds`` is used."""
    result = RunResult()
    setup = setup_graph(workdir, size.nodes, seed)
    graph = setup.graph
    result.metrics["setup_s"] = statistics.median(setup.setup_s)
    result.metrics.update(setup.layer_metrics())
    if trace:
        # Keep the set-up spans; the untraced rep below needs tracing off.
        result.roots.extend(obs.finished_roots())
        obs.disable_tracing()

    def rep():
        allocation, info = pipeline.solve(graph, seed)
        estimate = estimate_welfare(
            graph, pipeline.model, allocation, size.worlds,
            ctx=batched_context(seed, 2),
        )
        return allocation, info, estimate

    reps_s: List[float] = []
    first = None
    window_start = time.perf_counter()
    while not reps_s or (
        time.perf_counter() - window_start + reps_s[-1] <= run_seconds
        and not trace
    ):
        result.attempted += 1
        t0 = time.perf_counter()
        try:
            allocation, info, estimate = rep()
        except Exception:  # a failed rep is counted and reported, not fatal
            result.failed += 1
            result.fail(f"rep {result.attempted} raised:\n"
                        + traceback.format_exc())
            continue
        finally:
            reps_s.append(time.perf_counter() - t0)
        problems = pipeline.check(allocation, info)
        problems += welfare_problems(estimate.mean, estimate.stderr, reference)
        outcome = (allocation.pairs, estimate.mean, estimate.stderr)
        if first is None:
            first = outcome
        elif outcome != first:
            problems.append("rep disagrees with the first rep (same seeds)")
        if problems:
            result.failed += 1
            result.failures.extend(problems)
    window_s = time.perf_counter() - window_start

    result.metrics.update(latency_metrics(reps_s, window_s))
    if first is not None:
        result.metrics["welfare"] = first[1]
        result.welfare_stderr = first[2]
        result.metrics["diffusion.rel_stderr"] = first[2] / abs(first[1])
    result.metrics["peak_rss_mb"] = peak_rss_mib()

    if trace and first is not None:
        _traced_rep(pipeline, graph, seed, size, first, reps_s[0], result)
    return result


def _traced_rep(pipeline, graph, seed, size, first, plain_s, result) -> None:
    """One rep under layer spans, then the replays, all under one root."""
    obs.enable_tracing()
    with bench_span("rep") as root:
        allocation, info, solve_s, layers = pipeline.traced_solve(graph, seed)
        with bench_span("diffusion.welfare", worlds=size.worlds) as span:
            estimate = estimate_welfare(
                graph, pipeline.model, allocation, size.worlds,
                ctx=batched_context(seed, 2),
            )
        welfare_s = seconds(span)
        layers.update(pipeline.replay(graph, seed, info))
    result.roots.extend(obs.finished_roots())
    result.attempted += 1
    if (allocation.pairs, estimate.mean, estimate.stderr) != first:
        result.failed += 1
        result.fail("traced rep disagrees with the untraced rep")
    layers.update(
        {
            "diffusion.welfare_s": welfare_s,
            "diffusion.worlds_per_s": size.worlds / welfare_s,
            "trace.overhead_frac": (solve_s + welfare_s) / plain_s - 1.0,
            "trace.coverage_frac": covered_fraction(root),
        }
    )
    result.metrics.update(layers)
