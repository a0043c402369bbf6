"""The Utility-driven Independent Cascade (UIC) model — Fig. 1 of the paper.

One simulation realizes a full possible world ``W = (W^E, W^N)``:

1. the noise terms of all items are sampled once and fixed (``W^N``),
2. at ``t = 1`` seed nodes desire their allocated items and adopt the
   utility-maximizing subset (seeds are rational users),
3. at each ``t > 1``, nodes that adopted something new at ``t-1`` test their
   untested out-edges (each edge once per world, status remembered); desire
   sets grow along live edges by the in-neighbors' adopted sets; affected
   nodes re-run the adoption rule,
4. the process stops when no node adopts anything new.

Edges are tested lazily; by the deferred-decision principle the outcome is
distributed identically to pre-sampling the whole edge world.  A pre-sampled
:class:`~repro.diffusion.worlds.LiveEdgeGraph` can be supplied instead for
deterministic replays (used by the reachability tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.diffusion.adoption import adopt
from repro.diffusion.worlds import LiveEdgeGraph
from repro.graph.digraph import InfluenceGraph
from repro.utility.itemsets import Mask
from repro.utility.model import UtilityModel
from repro.utility.noise import NoiseWorld


@dataclass
class UICResult:
    """Outcome of one UIC possible world.

    ``desire`` and ``adopted`` map node -> itemset mask (nodes never touched
    by the diffusion are absent, meaning ∅).  ``welfare`` is the realized
    social welfare ``Σ_v U_W(A(v))`` of this world.
    """

    desire: Dict[int, Mask]
    adopted: Dict[int, Mask]
    welfare: float
    rounds: int
    noise_world: NoiseWorld

    def adopters_of(self, item: int) -> Set[int]:
        """Nodes that adopted a given item."""
        bit = 1 << item
        return {v for v, mask in self.adopted.items() if mask & bit}

    def total_adoptions(self) -> int:
        """Total number of (node, item) adoption pairs."""
        return sum(mask.bit_count() for mask in self.adopted.values())


def simulate_uic(
    graph: InfluenceGraph,
    model: UtilityModel,
    allocation: Iterable[Tuple[int, int]],
    rng: np.random.Generator,
    noise_world: Optional[NoiseWorld] = None,
    edge_world: Optional[LiveEdgeGraph] = None,
) -> UICResult:
    """Simulate one UIC possible world for a seed allocation.

    Parameters
    ----------
    graph:
        The social network ``G = (V, E, p)``.
    model:
        The utility model (valuation, prices, noise).
    allocation:
        Seed allocation ``𝒮`` as ``(node, item)`` pairs.
    rng:
        Randomness source for noise sampling and lazy edge tests.
    noise_world:
        Optional pre-sampled noise world (fixes ``W^N``).
    edge_world:
        Optional pre-sampled live-edge graph (fixes ``W^E``); when given, no
        lazy edge tests happen.

    Returns
    -------
    UICResult
        Final desire/adoption sets, realized welfare and round count.
    """
    if noise_world is None:
        noise_world = model.sample_noise_world(rng)
    utility_table = model.utility_table(noise_world)
    return propagate_uic(
        graph, model, allocation, rng, lambda v: utility_table,
        noise_world, edge_world,
    )


def propagate_uic(
    graph: InfluenceGraph,
    model: UtilityModel,
    allocation: Iterable[Tuple[int, int]],
    rng: np.random.Generator,
    table_of: Callable[[int], np.ndarray],
    noise_world: NoiseWorld,
    edge_world: Optional[LiveEdgeGraph] = None,
) -> UICResult:
    """One world's UIC dynamics, node ``v`` deciding with ``table_of(v)``.

    :func:`simulate_uic` hands every node the world's one utility table;
    the §5 personalized variant
    (:func:`repro.diffusion.personalized.simulate_uic_personalized`)
    hands each node its own, drawn on first use.  ``noise_world`` is
    only reported in the result.
    """
    desire: Dict[int, Mask] = {}
    adopted: Dict[int, Mask] = {}

    # t = 1: seeding.  Seed nodes desire their allocated items and adopt the
    # utility-maximizing subset (they are rational users too).
    for node, item in allocation:
        node = int(node)
        if not 0 <= node < graph.num_nodes:
            raise IndexError(f"seed node {node} outside graph")
        if not 0 <= item < model.num_items:
            raise IndexError(f"item {item} outside universe")
        desire[node] = desire.get(node, 0) | (1 << item)

    frontier: List[int] = []
    for node, wish in desire.items():
        new_adopted = adopt(table_of(node), wish, 0)
        if new_adopted:
            adopted[node] = new_adopted
            frontier.append(node)

    # Edge-test bookkeeping for the lazy mode (edge_world is None): per
    # node, the out-edges that came up live on its first adoption.
    live_out: Dict[int, List[int]] = {}

    rounds = 1
    while frontier:
        rounds += 1
        touched: Dict[int, Mask] = {}
        for u in frontier:
            source_adopted = adopted.get(u, 0)
            if source_adopted == 0:
                continue
            if edge_world is not None:
                live_targets = [int(v) for v in edge_world.out_neighbors(u)]
            else:
                cached = live_out.get(u)
                if cached is None:
                    # First time u adopts: test all its out-edges at once.
                    targets = graph.out_neighbors(u)
                    if targets.shape[0]:
                        coins = rng.random(targets.shape[0])
                        cached = [
                            int(v)
                            for v, c, p in zip(
                                targets, coins, graph.out_probabilities(u)
                            )
                            if c < p
                        ]
                    else:
                        cached = []
                    live_out[u] = cached
                live_targets = cached
            for v in live_targets:
                incoming = touched.get(v, 0) | source_adopted
                touched[v] = incoming

        next_frontier: List[int] = []
        for v, incoming in touched.items():
            old_desire = desire.get(v, 0)
            new_desire = old_desire | incoming
            if new_desire == old_desire:
                continue
            desire[v] = new_desire
            old_adopted = adopted.get(v, 0)
            new_adopted = adopt(table_of(v), new_desire, old_adopted)
            if new_adopted != old_adopted:
                adopted[v] = new_adopted
                next_frontier.append(v)
        frontier = next_frontier

    welfare = float(sum(table_of(v)[mask] for v, mask in adopted.items()))
    return UICResult(
        desire=desire,
        adopted=adopted,
        welfare=welfare,
        rounds=rounds,
        noise_world=noise_world,
    )
