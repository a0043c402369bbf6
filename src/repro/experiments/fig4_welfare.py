"""Fig. 4 — expected social welfare of the five algorithms, configs 1–4.

The paper plots this on Douban-Movie; uniform-budget configs sweep both
items' budget 10→50, non-uniform configs fix ``b1 = 70`` and sweep
``b2`` 30→110.  Headline shapes:

* bundleGRD dominates item-disj by up to ~5× (Fig. 4(d));
* RR-SIM+/RR-CIM achieve welfare similar to bundleGRD (their allocations
  converge to copying seeds) but are far slower (that part is Fig. 5);
* in configs 1/2, item-disj ≡ bundle-disj; in configs 3/4, bundleGRD ≡
  bundle-disj (checked structurally in tests).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments._two_item import (
    TWO_ITEM_ALGORITHMS,
    TwoItemRun,
    run_two_item_experiment,
    runs_as_rows,
)
from repro.experiments.runner import print_table
from repro.graph.digraph import InfluenceGraph


def run_fig4(
    config_id: int,
    network: str = "douban-movie",
    scale: float = 0.1,
    budget_vectors: Optional[Sequence[Tuple[int, int]]] = None,
    algorithms: Sequence[str] = TWO_ITEM_ALGORITHMS,
    num_samples: int = 100,
    seed: int = 0,
    graph: Optional[InfluenceGraph] = None,
    ctx=None,
) -> List[TwoItemRun]:
    """Regenerate one panel of Fig. 4 (configs 1–4 → panels a–d).

    ``ctx`` selects the engine backend
    for every algorithm and the welfare evaluation (``None`` resolves
    ``$REPRO_RR_BACKEND``).
    """
    return run_two_item_experiment(
        config_id=config_id,
        network=network,
        scale=scale,
        budget_vectors=budget_vectors,
        algorithms=algorithms,
        num_samples=num_samples,
        seed=seed,
        graph=graph,
        ctx=ctx,
    )


def welfare_series(runs: Sequence[TwoItemRun]) -> Dict[str, List[float]]:
    """Per-algorithm welfare series over the budget sweep (the plotted lines)."""
    series: Dict[str, List[float]] = {}
    for run in runs:
        series.setdefault(run.algorithm, []).append(run.welfare)
    return series


def main() -> None:  # pragma: no cover - manual entry point
    for config_id in (1, 2, 3, 4):
        runs = run_fig4(config_id, scale=0.05, num_samples=50)
        print_table(runs_as_rows(runs), title=f"Fig 4 — Configuration {config_id}")


if __name__ == "__main__":  # pragma: no cover
    main()
