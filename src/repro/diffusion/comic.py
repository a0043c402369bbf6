"""The Com-IC model of Lu et al. [36] for two complementary items.

Com-IC equips every node with a *node-level automaton* (NLA) driven by four
Global Adoption Probabilities in the two-item case:

* ``q_{A|∅}``  — probability of adopting A having adopted nothing,
* ``q_{A|B}``  — probability of adopting A having adopted B,
* ``q_{B|∅}``, ``q_{B|A}`` symmetrically.

In the mutually complementary regime (``q_{A|B} ≥ q_{A|∅}``, ``q_{B|A} ≥
q_{B|∅}``) the standard possible-world formulation samples one uniform
threshold ``λ_A(v), λ_B(v)`` per node and item: ``v`` adopts A when informed
iff ``λ_A(v) ≤ q_{A|state}``; a node that initially suspends A (because
``λ_A > q_{A|∅}``) *reconsiders* automatically when it adopts B, because the
threshold is then compared against the larger ``q_{A|B}``.  Edges follow the
usual IC live-edge semantics.

This module exists for the RR-SIM+/RR-CIM baselines (§4.3.1.2) and for
verifying the paper's GAP ↔ utility correspondence (Eq. 12) by simulation.
:func:`estimate_comic_spread` runs its worlds through the forward
estimators' shared driver (:mod:`repro.diffusion.montecarlo`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional, Sequence, Set, Tuple

import numpy as np

from repro.diffusion.montecarlo import require_ic, run_worlds
from repro.graph.digraph import InfluenceGraph

ITEM_A, ITEM_B = 0, 1


def check_item(item: int) -> None:
    """Raise ``ValueError`` unless ``item`` is Com-IC's item A or B."""
    if item not in (ITEM_A, ITEM_B):
        raise ValueError(f"Com-IC supports items 0 and 1, got {item}")


@dataclass(frozen=True)
class ComICModel:
    """GAP parameters of a two-item Com-IC instance."""

    q_a_empty: float
    q_a_given_b: float
    q_b_empty: float
    q_b_given_a: float

    def __post_init__(self) -> None:
        for name, q in (
            ("q_a_empty", self.q_a_empty),
            ("q_a_given_b", self.q_a_given_b),
            ("q_b_empty", self.q_b_empty),
            ("q_b_given_a", self.q_b_given_a),
        ):
            if not 0.0 <= q <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {q}")

    def is_mutually_complementary(self) -> bool:
        """Whether adoption of one item never hurts the other."""
        return (
            self.q_a_given_b >= self.q_a_empty
            and self.q_b_given_a >= self.q_b_empty
        )

    def q(self, item: int, has_other: bool) -> float:
        """GAP parameter for ``item`` given other-item adoption state."""
        if item == ITEM_A:
            return self.q_a_given_b if has_other else self.q_a_empty
        if item == ITEM_B:
            return self.q_b_given_a if has_other else self.q_b_empty
        raise ValueError(f"Com-IC supports items 0 and 1, got {item}")


@dataclass
class ComICResult:
    """Adoption outcome of one Com-IC possible world."""

    adopted_a: Set[int]
    adopted_b: Set[int]

    def adopters_of(self, item: int) -> Set[int]:
        """Adopters of the given item."""
        return self.adopted_a if item == ITEM_A else self.adopted_b


def simulate_comic(
    graph: InfluenceGraph,
    model: ComICModel,
    seeds_a: Sequence[int],
    seeds_b: Sequence[int],
    rng: np.random.Generator,
) -> ComICResult:
    """Simulate one Com-IC possible world.

    Seeds are informed of their item at ``t = 1`` and run the same NLA as
    everyone else.  Requires a mutually complementary instance (the regime of
    the paper's experiments); the reconsideration rule is realized through
    per-node thresholds.
    """
    if not model.is_mutually_complementary():
        raise ValueError(
            "simulate_comic implements the mutually complementary regime; "
            "got a competitive parameterization"
        )
    n = graph.num_nodes
    thresholds = rng.random((n, 2))
    informed = [[False, False] for _ in range(n)]
    adopted = [[False, False] for _ in range(n)]
    live_out: Dict[int, list] = {}

    queue: deque[Tuple[int, int]] = deque()  # (node, item) information events
    for s in seeds_a:
        queue.append((int(s), ITEM_A))
    for s in seeds_b:
        queue.append((int(s), ITEM_B))

    def try_adopt(v: int, item: int) -> bool:
        """Run the NLA for item at node v; returns True on new adoption."""
        if adopted[v][item]:
            return False
        has_other = adopted[v][1 - item]
        if thresholds[v][item] <= model.q(item, has_other):
            adopted[v][item] = True
            return True
        return False

    def live_targets(u: int) -> list:
        cached = live_out.get(u)
        if cached is None:
            targets = graph.out_neighbors(u)
            if targets.shape[0]:
                coins = rng.random(targets.shape[0])
                cached = [
                    int(v)
                    for v, c, p in zip(targets, coins, graph.out_probabilities(u))
                    if c < p
                ]
            else:
                cached = []
            live_out[u] = cached
        return cached

    while queue:
        v, item = queue.popleft()
        if informed[v][item]:
            continue
        informed[v][item] = True
        newly = []
        if try_adopt(v, item):
            newly.append(item)
            # Reconsideration: adopting `item` may unlock the other item if v
            # was informed of it earlier but suspended.
            other = 1 - item
            if informed[v][other] and try_adopt(v, other):
                newly.append(other)
        for adopted_item in newly:
            for w in live_targets(v):
                if not informed[w][adopted_item]:
                    queue.append((w, adopted_item))

    return ComICResult(
        adopted_a={v for v in range(n) if adopted[v][ITEM_A]},
        adopted_b={v for v in range(n) if adopted[v][ITEM_B]},
    )


def estimate_comic_spread(
    graph: InfluenceGraph,
    model: ComICModel,
    seeds_a: Sequence[int],
    seeds_b: Sequence[int],
    item: int,
    num_samples: int = 200,
    rng: Optional[object] = None,
    backend: Optional[str] = None,
    *,
    ctx=None,
) -> float:
    """MC estimate of the expected number of adopters of ``item``.

    ``rng`` may be a ``numpy.random.Generator``, an integer seed, or
    ``None`` (seed 0).  Integer seeds are expanded through
    ``SeedSequence``, so a CLI-supplied integer names one reproducible
    estimate per backend.  The context's backend picks the forward engine
    (:func:`repro.diffusion.montecarlo.run_worlds`): one
    :func:`simulate_comic` per world (the historical byte-identical path
    when handed a ``Generator``), or
    :func:`repro.diffusion.batch_forward.batch_comic_counts` on all worlds
    at once or on pooled shards.  Com-IC edges are IC's: a context
    carrying another triggering model raises ``ValueError``.  The removed
    legacy ``backend=`` keyword raises ``TypeError``.
    """
    from repro.diffusion.batch_forward import batch_comic_counts
    from repro.engine import ensure_context

    check_item(item)
    ctx = ensure_context(
        ctx, backend=backend, rng=rng, caller="estimate_comic_spread"
    )
    require_ic(ctx, "estimate_comic_spread")
    seeds_a, seeds_b = tuple(seeds_a), tuple(seeds_b)
    kernel = partial(
        batch_comic_counts,
        model=model,
        seeds_a=seeds_a,
        seeds_b=seeds_b,
        item=item,
    )

    def simulate(rng) -> int:
        result = simulate_comic(graph, model, seeds_a, seeds_b, rng)
        return len(result.adopters_of(item))

    values = run_worlds(
        graph, ctx, num_samples, "diffusion.comic_spread", kernel, simulate
    )
    return float(values.mean())
