"""Fig. 7 — multi-item welfare, configurations 5–8 (Twitter stand-in).

RR-SIM+/RR-CIM cannot go beyond two items, so the comparison is bundleGRD vs
item-disj vs bundle-disj.  The total budget is swept and split per
§4.3.3.2 (uniform for configs 5 and 8; 20%/2% skewed otherwise).  Paper
shape: bundleGRD matches bundle-disj where the configs force the same
allocation, and otherwise beats every baseline by up to ~4×.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.bundle_disjoint import bundle_disjoint
from repro.baselines.item_disjoint import item_disjoint
from repro.core.bundlegrd import bundle_grd
from repro.diffusion.welfare import estimate_welfare
from repro.experiments.configs import multi_item_config
from repro.experiments.runner import print_table, stopwatch
from repro.graph import datasets
from repro.graph.digraph import InfluenceGraph

MULTI_ITEM_ALGORITHMS: Tuple[str, ...] = ("bundleGRD", "item-disj", "bundle-disj")


@dataclass(frozen=True)
class MultiItemRun:
    """One (algorithm, total budget) measurement."""

    algorithm: str
    total_budget: int
    budgets: Tuple[int, ...]
    welfare: float
    welfare_stderr: float
    seconds: float


def run_fig7(
    config_id: int,
    network: str = "twitter",
    scale: float = 0.1,
    total_budgets: Sequence[int] = (100, 300, 500),
    num_items: int = 5,
    algorithms: Sequence[str] = MULTI_ITEM_ALGORITHMS,
    num_samples: int = 60,
    epsilon: float = 0.5,
    ell: float = 1.0,
    seed: int = 0,
    graph: Optional[InfluenceGraph] = None,
    ctx=None,
) -> List[MultiItemRun]:
    """Regenerate one panel of Fig. 7 (configs 5–8 → panels a–d).

    ``ctx`` selects the engine backend
    for the seed-selection algorithms and the welfare evaluation
    (``None`` resolves ``$REPRO_RR_BACKEND``).
    """
    from repro.engine import ensure_context

    policy = ensure_context(ctx, caller="run_fig7")
    unknown = set(algorithms) - set(MULTI_ITEM_ALGORITHMS)
    if unknown:
        raise ValueError(f"unknown algorithms: {sorted(unknown)}")
    if graph is None:
        graph = datasets.load(network, scale=scale)
    runs: List[MultiItemRun] = []
    for total in total_budgets:
        config, budgets = multi_item_config(
            config_id, num_items=num_items, total_budget=int(total), seed=seed
        )
        for algorithm in algorithms:
            timing: Dict[str, float] = {}
            run_ctx = policy.with_stream(rng=np.random.default_rng(seed))
            with stopwatch(timing):
                if algorithm == "bundleGRD":
                    allocation = bundle_grd(
                        graph, budgets, epsilon=epsilon, ell=ell, ctx=run_ctx
                    ).allocation
                elif algorithm == "item-disj":
                    allocation = item_disjoint(
                        graph, budgets, epsilon=epsilon, ell=ell, ctx=run_ctx
                    ).allocation
                else:
                    allocation = bundle_disjoint(
                        graph,
                        config.model,
                        budgets,
                        epsilon=epsilon,
                        ell=ell,
                        ctx=run_ctx,
                    ).allocation
            welfare = estimate_welfare(
                graph,
                config.model,
                allocation,
                num_samples=num_samples,
                ctx=policy.with_stream(rng=np.random.default_rng(seed + 1)),
            )
            runs.append(
                MultiItemRun(
                    algorithm=algorithm,
                    total_budget=int(total),
                    budgets=tuple(budgets),
                    welfare=welfare.mean,
                    welfare_stderr=welfare.stderr,
                    seconds=timing["seconds"],
                )
            )
    return runs


def runs_as_rows(runs: Sequence[MultiItemRun]) -> List[Dict[str, object]]:
    """Flatten runs into printable dict rows."""
    return [
        {
            "algorithm": r.algorithm,
            "total_budget": r.total_budget,
            "budgets": "/".join(str(b) for b in r.budgets),
            "welfare": round(r.welfare, 1),
            "stderr": round(r.welfare_stderr, 2),
            "seconds": round(r.seconds, 3),
        }
        for r in runs
    ]


def welfare_series(runs: Sequence[MultiItemRun]) -> Dict[str, List[float]]:
    """Per-algorithm welfare series over the total-budget sweep."""
    series: Dict[str, List[float]] = {}
    for run in runs:
        series.setdefault(run.algorithm, []).append(run.welfare)
    return series


def main() -> None:  # pragma: no cover - manual entry point
    for config_id in (5, 6, 7, 8):
        runs = run_fig7(config_id, scale=0.04, total_budgets=(100, 200), num_samples=30)
        print_table(runs_as_rows(runs), title=f"Fig 7 — Configuration {config_id}")


if __name__ == "__main__":  # pragma: no cover
    main()
