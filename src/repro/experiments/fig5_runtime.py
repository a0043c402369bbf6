"""Fig. 5 — running times of the five algorithms on four networks (config 1).

Paper shape: bundleGRD and bundle-disj coincide (configs 1/2 make bundles
singletons, so both boil down to IMM calls); bundleGRD is up to five orders
of magnitude faster than RR-CIM and ~1.5× faster than item-disj; the Com-IC
algorithms time out on Twitter (panel d omits them) — we mirror that with a
``comic_networks`` allowlist.
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

#: Fig. 5's panels, in order.
FIG5_NETWORKS: Tuple[str, ...] = (
    "flixster",
    "douban-book",
    "douban-movie",
    "twitter",
)

#: Networks small enough to run the TIM-based Com-IC baselines on (the paper
#: itself omits them from the Twitter panel after a 6-hour timeout).
COMIC_NETWORKS: Tuple[str, ...] = ("flixster", "douban-book", "douban-movie")


def run_fig5(
    networks: Sequence[str] = FIG5_NETWORKS,
    scale: float = 0.1,
    budget_vectors: Optional[Sequence[Tuple[int, int]]] = None,
    num_samples: int = 20,
    seed: int = 0,
    comic_networks: Sequence[str] = COMIC_NETWORKS,
    ctx=None,
) -> Dict[str, List[TwoItemRun]]:
    """Regenerate the four panels of Fig. 5 (config 1, times per network).

    ``ctx`` selects the engine backend
    for every algorithm and the welfare evaluation (``None`` resolves
    ``$REPRO_RR_BACKEND``).
    """
    if budget_vectors is None:
        budget_vectors = [(10, 10), (30, 30), (50, 50)]
    panels: Dict[str, List[TwoItemRun]] = {}
    for network in networks:
        algorithms = [
            a
            for a in TWO_ITEM_ALGORITHMS
            if network in comic_networks or a not in ("RR-SIM+", "RR-CIM")
        ]
        panels[network] = run_two_item_experiment(
            config_id=1,
            network=network,
            scale=scale,
            budget_vectors=budget_vectors,
            algorithms=algorithms,
            num_samples=num_samples,
            seed=seed,
            ctx=ctx,
        )
    return panels


def runtime_series(runs: Sequence[TwoItemRun]) -> Dict[str, List[float]]:
    """Per-algorithm wall-clock series (the plotted lines, in seconds)."""
    series: Dict[str, List[float]] = {}
    for run in runs:
        series.setdefault(run.algorithm, []).append(run.seconds)
    return series


def main() -> None:  # pragma: no cover - manual entry point
    panels = run_fig5(scale=0.05, budget_vectors=[(10, 10), (30, 30)])
    for network, runs in panels.items():
        print_table(runs_as_rows(runs), title=f"Fig 5 — {network}")


if __name__ == "__main__":  # pragma: no cover
    main()
