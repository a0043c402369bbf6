"""Batched forward-diffusion engine: advance all Monte Carlo worlds at once.

The sequential simulators (:func:`repro.diffusion.ic.simulate_ic`,
:func:`repro.diffusion.comic.simulate_comic`,
:func:`repro.diffusion.uic.simulate_uic`) run one possible world per Python
call — fine for a single cascade, but welfare/spread estimation samples
hundreds of worlds per estimate and pays interpreter overhead per node and
per edge in every one of them.  This module is the forward twin of
:mod:`repro.rrset.batch`: it keeps the union of all worlds' frontiers as
flat ``(world, node)`` int64 arrays and advances every world simultaneously
with one vectorized step per diffusion round over the graph's forward CSR.

**Frontier scheme.**  Each round performs a segmented gather of the frontier
nodes' out-edges (``np.repeat`` over per-node degrees, exactly the batched
RR-set trick mirrored onto the out-CSR), resolves which candidate edges are
live, filters targets against per-world state bitmaps, and de-duplicates the
survivors within the round by sorting scalar keys
(:func:`~repro.diffusion.triggering.distinct_sorted`).  Per-model
state is a set of flat ``(worlds, n)`` arrays:

* **IC** — one boolean ``active`` bitmap; live edges are per-discovery
  coins (each (world, edge) is tested at most once, since IC activation is
  one-shot).
* **Com-IC** — pre-sampled per-world live-edge flags over the out-CSR plus
  per-node adoption thresholds ``λ(v, item)``, and ``informed`` /
  ``adopted`` bitmaps per item.  Adoption replays the node-level automaton:
  the threshold is compared against ``q(item | other)``, which grows when
  the complementary item is adopted, and a *reconsideration* pass re-tests
  the other item after every first-wave adoption — the same monotone
  fixpoint the sequential deque computes, so final adopter sets match
  realization-for-realization.
* **UIC** — per-world utility tables (one sampled noise world each; one
  per (world, node) under the §5 personalized noise, same loop), an
  itemset-mask ``desire``/``adopted`` state per (world, node), live edges
  drawn lazily on first visit — per-source coin flips under the IC fast
  path (:class:`_LiveEdgeLog`), per-*target* trigger sets through the
  shared :class:`~repro.diffusion.triggering.TriggerCSR` sampler otherwise
  (:class:`_LazyTriggerLog`; only the pairs a cascade actually reaches are
  ever drawn), and a per-world *adoption decision table*
  ``decision[w, desire, adopted]`` that tabulates the utility-maximizing
  rule of :func:`repro.diffusion.adoption.adopt` for every reachable
  (desire, adopted) pair — ``3^k`` vectorized evaluations per chunk instead
  of one Python subset enumeration per touched node per world.

**Memory.**  Worlds are processed in chunks sized so the per-chunk state
(bitmaps, thresholds, live-edge flags) stays within ``_TARGET_BYTES``;
arbitrarily many worlds stream through a fixed working set, as walks stream
through the batched RR sampler's sized chunks.  The estimators' kernels
return per-world totals (:func:`batch_uic_welfare`,
:func:`batch_uic_counts`, :func:`batch_comic_counts`,
:func:`batch_simulate_uic_personalized`), so no per-node state outlives
its chunk; :func:`batch_simulate_uic` and :func:`batch_simulate_comic`
keep every world's per-node state for the tests and the GAP sampler.

**Oracle contract.**  The sequential simulators are kept byte-identical and
remain the equivalence oracles: for a fixed RNG they reproduce the
historical stream bit for bit, while the batched engine consumes randomness
in a different (vectorized) order and is therefore *statistically*
equivalent — same per-world outcome distribution, different realizations.
Tests pin both: exact agreement on deterministic instances (probability-1
edges, degenerate GAPs, zero noise) and distributional agreement elsewhere
(``tests/test_batch_forward.py``).  Backend selection follows the engine
convention (explicit argument > ``$REPRO_RR_BACKEND`` > batched) in the
forward estimators' shared driver
(:func:`repro.diffusion.montecarlo.run_worlds`) and in the Com-IC
baselines' forward-world pass.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.diffusion.adoption import TIE_TOL
from repro.diffusion.comic import ITEM_A, ITEM_B, ComICModel, check_item
from repro.diffusion.triggering import (
    IndependentCascadeTriggering,
    TriggerCSR,
    TriggeringModel,
    build_trigger_csr,
    distinct_sorted,
    has_trigger_distribution,
    segmented_positions,
)
from repro.diffusion.triggering import (
    sample_trigger_members as _sample_trigger_members,
)
from repro.graph.digraph import InfluenceGraph
from repro.utility.itemsets import iter_subsets
from repro.utility.model import UtilityModel
from repro.utility.noise import NoiseWorld

#: Per-chunk budget for the flat world state (bytes, approximate).
_TARGET_BYTES = 1 << 26  # 64 MB

#: Largest item universe the UIC decision-table path handles; beyond this
#: the ``3^k`` table construction stops paying for itself and callers fall
#: back to the sequential simulator (see ``supports_batched_uic``).
MAX_BATCH_ITEMS = 6


def _world_chunks(num_worlds: int, bytes_per_world: int) -> Iterable[int]:
    """Yield chunk sizes whose state stays within ``_TARGET_BYTES``."""
    chunk = max(1, min(num_worlds, _TARGET_BYTES // max(bytes_per_world, 1)))
    remaining = num_worlds
    while remaining > 0:
        batch = min(chunk, remaining)
        yield batch
        remaining -= batch


def _gather_out_edges(
    graph: InfluenceGraph, frontier_n: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, int]]:
    """Segmented gather of every candidate out-edge of a flat frontier.

    The forward mirror of the batched RR sampler's in-edge gather: returns
    ``(dst, probs, degs, total)`` — flattened targets, the edge
    probabilities, per-node degrees and the total count — or ``None`` when
    the frontier has no out-edges at all.
    """
    indptr = graph._out_indptr
    starts = indptr[frontier_n]
    degs = indptr[frontier_n + 1] - starts
    total = int(degs.sum())
    if total == 0:
        return None
    pos = segmented_positions(starts, degs)
    return graph._out_targets[pos], graph._out_probs[pos], degs, total


def _seed_frontier(
    seeds: np.ndarray, batch: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Initial flat ``(world, node)`` frontier: every seed in every world."""
    fw = np.repeat(np.arange(batch, dtype=np.int64), seeds.shape[0])
    fn = np.tile(seeds, batch)
    return fw, fn


def _or_by_pair(
    w: np.ndarray, v: np.ndarray, masks: np.ndarray, n: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """OR ``masks`` over each distinct non-empty ``(w, v)`` group.

    Returns ``(pw, pv, merged)`` with one entry per distinct pair, in
    ascending ``w·n + v`` order.
    """
    key = w * n + v
    order = np.argsort(key, kind="stable")
    key_sorted = key[order]
    bounds = np.concatenate(
        ([0], np.flatnonzero(key_sorted[1:] != key_sorted[:-1]) + 1)
    )
    merged = np.bitwise_or.reduceat(masks[order], bounds)
    pair = key_sorted[bounds]
    return pair // n, pair % n, merged


class _LiveEdgeLog:
    """Lazy per-chunk live-edge cache with first-visit coin flips.

    The sequential Com-IC/UIC simulators test a node's out-edges the first
    time it adopts and *cache* the live targets — by the deferred-decision
    principle each (world, edge) pair is flipped at most once.  Pre-sampling
    the full ``(worlds, m)`` coin matrix reproduces that, but pays for every
    edge of every world even though only the out-edges of *adopting* nodes
    are ever consulted (a small fraction on typical instances).  This log
    keeps the lazy semantics instead: the first time a ``(world, node)``
    pair propagates, its out-edge coins are flipped vectorized and the live
    targets are appended to a per-round segment (keys sorted, CSR over
    pairs); re-propagations (a node adopting additional items later) look
    their cached targets up by binary search over the few round segments.

    Callers must pass each round's ``(world, node)`` pairs de-duplicated.
    """

    __slots__ = ("_n", "_expanded", "_seg_keys", "_seg_indptr", "_seg_targets")

    def __init__(self, batch: int, n: int):
        self._n = n
        self._expanded = np.zeros((batch, n), dtype=bool)
        self._seg_keys: List[np.ndarray] = []
        self._seg_indptr: List[np.ndarray] = []
        self._seg_targets: List[np.ndarray] = []

    def live_targets(
        self,
        graph: InfluenceGraph,
        rng: np.random.Generator,
        fw: np.ndarray,
        fn: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Live out-targets of unique frontier pairs ``(fw[i], fn[i])``.

        Returns ``(entry, targets)``: ``targets[j]`` is live for the
        frontier entry ``entry[j]`` (an index into ``fw``/``fn``), mixing
        fresh first-visit samples with cached repeat lookups.
        """
        keys = fw * self._n + fn
        first = ~self._expanded[fw, fn]
        entry_parts: List[np.ndarray] = []
        target_parts: List[np.ndarray] = []

        repeat_idx = np.flatnonzero(~first)
        if repeat_idx.size:
            repeat_keys = keys[repeat_idx]
            for seg_keys, seg_indptr, seg_targets in zip(
                self._seg_keys, self._seg_indptr, self._seg_targets
            ):
                pos = np.searchsorted(seg_keys, repeat_keys)
                safe = np.minimum(pos, seg_keys.shape[0] - 1)
                found = seg_keys[safe] == repeat_keys
                if not found.any():
                    continue
                hit_idx = repeat_idx[found]
                hit_pos = safe[found]
                starts = seg_indptr[hit_pos]
                degs = seg_indptr[hit_pos + 1] - starts
                gather = segmented_positions(starts, degs)
                if gather.shape[0]:
                    entry_parts.append(np.repeat(hit_idx, degs))
                    target_parts.append(seg_targets[gather])

        first_idx = np.flatnonzero(first)
        if first_idx.size:
            self._expanded[fw[first_idx], fn[first_idx]] = True
            gathered = _gather_out_edges(graph, fn[first_idx])
            if gathered is not None:
                dst, probs, degs, total = gathered
                live = rng.random(total) < probs
                within = np.repeat(
                    np.arange(first_idx.shape[0]), degs
                )[live]
                live_targets = dst[live]
                entry_parts.append(first_idx[within])
                target_parts.append(live_targets)
                # Log this round's samples, sorted by key for the repeat
                # lookups of later rounds.
                live_degs = np.bincount(
                    within, minlength=first_idx.shape[0]
                )
                seg_keys = keys[first_idx]
                order = np.argsort(seg_keys, kind="stable")
                seg_indptr = np.zeros(
                    first_idx.shape[0] + 1, dtype=np.int64
                )
                np.cumsum(live_degs[order], out=seg_indptr[1:])
                # ``within`` is non-decreasing, so ``live_targets`` is
                # already grouped per pair; remap each contiguous run to
                # key order.
                sorted_targets = live_targets
                starts = np.concatenate(
                    ([0], np.cumsum(live_degs))
                )[:-1]
                run = np.repeat(
                    starts[order] - (seg_indptr[:-1]), live_degs[order]
                )
                self._seg_keys.append(seg_keys[order])
                self._seg_indptr.append(seg_indptr)
                self._seg_targets.append(
                    sorted_targets[
                        np.arange(int(seg_indptr[-1])) + run
                    ]
                )
        if not entry_parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return np.concatenate(entry_parts), np.concatenate(target_parts)


# ----------------------------------------------------------------------
# IC
# ----------------------------------------------------------------------
def batch_simulate_ic(
    graph: InfluenceGraph,
    seeds: Sequence[int],
    num_worlds: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Simulate ``num_worlds`` IC cascades at once.

    Returns a ``(num_worlds, n)`` boolean bitmap of active nodes; row
    ``w`` is distributed identically to
    ``simulate_ic(graph, seeds, rng)``.  Edge coins are flipped per
    discovery — each (world, edge) at most once, since an IC node enters
    the frontier exactly once per world.
    """
    n = graph.num_nodes
    if num_worlds < 0:
        raise ValueError(f"num_worlds must be non-negative, got {num_worlds}")
    seeds_arr = np.unique(np.asarray(list(seeds), dtype=np.int64))
    if seeds_arr.size and (seeds_arr[0] < 0 or seeds_arr[-1] >= n):
        raise IndexError(f"seed outside graph of {n} nodes")
    active = np.zeros((num_worlds, n), dtype=bool)
    if num_worlds == 0 or seeds_arr.size == 0:
        return active
    done = 0
    for batch in _world_chunks(num_worlds, n):
        sub = active[done : done + batch]
        fw, fn = _seed_frontier(seeds_arr, batch)
        sub[fw, fn] = True
        while fw.size:
            gathered = _gather_out_edges(graph, fn)
            if gathered is None:
                break
            dst, probs, degs, total = gathered
            live = rng.random(total) < probs
            w = np.repeat(fw, degs)[live]
            t = dst[live]
            if w.size:
                fresh = ~sub[w, t]
                w = w[fresh]
                t = t[fresh]
            if w.size == 0:
                break
            key = distinct_sorted(w * n + t)
            w = key // n
            t = key % n
            sub[w, t] = True
            fw, fn = w, t
        done += batch
    return active


# ----------------------------------------------------------------------
# Com-IC
# ----------------------------------------------------------------------
@dataclass
class BatchComICResult:
    """Adoption bitmaps of a batch of Com-IC worlds.

    ``adopted_a`` / ``adopted_b`` are ``(num_worlds, n)`` boolean arrays;
    row ``w`` is one possible world's adopter set per item.
    """

    adopted_a: np.ndarray
    adopted_b: np.ndarray

    def adopters_bitmap(self, item: int) -> np.ndarray:
        """Per-world adopter bitmap of the given item."""
        check_item(item)
        return self.adopted_a if item == ITEM_A else self.adopted_b

    def adopter_counts(self, item: int) -> np.ndarray:
        """Per-world adopter counts of the given item."""
        return self.adopters_bitmap(item).sum(axis=1)


def _comic_chunks(
    graph: InfluenceGraph,
    model: ComICModel,
    seeds_a: Sequence[int],
    seeds_b: Sequence[int],
    num_worlds: int,
    rng: np.random.Generator,
) -> Iterator[np.ndarray]:
    """Validate a batched Com-IC run, then return its chunk iterator.

    The iterator simulates the worlds chunk by chunk and yields each
    chunk's ``(batch, n, 2)`` boolean adoption state (last axis: item).
    A run without seeds yields nothing and draws nothing.
    """
    if not model.is_mutually_complementary():
        raise ValueError(
            "batch_simulate_comic implements the mutually complementary "
            "regime; got a competitive parameterization"
        )
    n = graph.num_nodes
    if num_worlds < 0:
        raise ValueError(f"num_worlds must be non-negative, got {num_worlds}")
    seeds = []
    for item_seeds in (seeds_a, seeds_b):
        arr = np.unique(np.asarray(list(item_seeds), dtype=np.int64))
        if arr.size and (arr[0] < 0 or arr[-1] >= n):
            raise IndexError(f"seed outside graph of {n} nodes")
        seeds.append(arr)
    if seeds[ITEM_A].size == 0 and seeds[ITEM_B].size == 0:
        return iter(())

    # q_table[item, has_other]: the GAP the threshold is compared against.
    q_table = np.array(
        [
            [model.q_a_empty, model.q_a_given_b],
            [model.q_b_empty, model.q_b_given_a],
        ],
        dtype=np.float64,
    )
    # Per-world bytes: thresholds (2 float64) + informed/adopted (4 bool) +
    # the live-edge log's expanded bitmap per node.
    bytes_per_world = 21 * n

    def run() -> Iterator[np.ndarray]:
        for batch in _world_chunks(num_worlds, bytes_per_world):
            thresholds = rng.random((batch, n, 2))
            live_log = _LiveEdgeLog(batch, n)
            informed = np.zeros((batch, n, 2), dtype=bool)
            adopted = np.zeros((batch, n, 2), dtype=bool)

            # Initial information events: each item's seeds, every world.
            parts_w, parts_v, parts_i = [], [], []
            for item in (ITEM_A, ITEM_B):
                if seeds[item].size:
                    fw, fn = _seed_frontier(seeds[item], batch)
                    parts_w.append(fw)
                    parts_v.append(fn)
                    parts_i.append(np.full(fw.shape[0], item, dtype=np.int64))
            ew = np.concatenate(parts_w)
            ev = np.concatenate(parts_v)
            ei = np.concatenate(parts_i)

            while ew.size:
                informed[ew, ev, ei] = True
                # First wave: the NLA with the *current* other-item state.
                has_other = adopted[ew, ev, 1 - ei].astype(np.int64)
                passes = thresholds[ew, ev, ei] <= q_table[ei, has_other]
                aw, av, ai = ew[passes], ev[passes], ei[passes]
                adopted[aw, av, ai] = True
                # Reconsideration: a fresh adoption boosts the other item's
                # GAP; nodes informed of the other item earlier (or this
                # round) that suspended it re-run the automaton against
                # q(other | item).
                oi = 1 - ai
                redo = (
                    informed[aw, av, oi]
                    & ~adopted[aw, av, oi]
                    & (thresholds[aw, av, oi] <= q_table[oi, 1])
                )
                rw, rv, ri = aw[redo], av[redo], oi[redo]
                adopted[rw, rv, ri] = True

                nw = np.concatenate([aw, rw])
                if nw.size == 0:
                    break
                # Group this round's adoptions by (world, node) — a node
                # that adopted both items this round spreads them over the
                # *same* live out-edges, so the live-edge log is queried
                # once per pair.
                uw, uv, item_masks = _or_by_pair(
                    nw,
                    np.concatenate([av, rv]),
                    np.left_shift(1, np.concatenate([ai, ri])),
                    n,
                )
                entry, targets = live_log.live_targets(graph, rng, uw, uv)
                if entry.size == 0:
                    break
                event_parts = []
                spread_mask = item_masks[entry]
                for item in (ITEM_A, ITEM_B):
                    carries = (spread_mask >> item) & 1 == 1
                    w_i = uw[entry[carries]]
                    t_i = targets[carries]
                    if w_i.size:
                        fresh = ~informed[w_i, t_i, item]
                        w_i, t_i = w_i[fresh], t_i[fresh]
                    if w_i.size:
                        event_parts.append((w_i * n + t_i) * 2 + item)
                if not event_parts:
                    break
                key = distinct_sorted(np.concatenate(event_parts))
                item = key % 2
                wt = key // 2
                ew, ev, ei = wt // n, wt % n, item
            yield adopted

    return run()


def batch_simulate_comic(
    graph: InfluenceGraph,
    model: ComICModel,
    seeds_a: Sequence[int],
    seeds_b: Sequence[int],
    num_worlds: int,
    rng: np.random.Generator,
) -> BatchComICResult:
    """Simulate ``num_worlds`` Com-IC possible worlds at once.

    Each world row follows exactly the distribution of
    :func:`repro.diffusion.comic.simulate_comic`: per-node thresholds
    ``λ(v, item) ~ U[0,1)`` realize the GAP automaton (with automatic
    reconsideration in the mutually complementary regime), and live edges
    are pre-sampled per world (the deferred-decision equivalent of the
    sequential simulator's lazy edge tests).  Keeps every world's
    bitmaps; :func:`batch_comic_counts` runs the same worlds and keeps one
    count per world.
    """
    chunks = _comic_chunks(graph, model, seeds_a, seeds_b, num_worlds, rng)
    adopted_a = np.zeros((num_worlds, graph.num_nodes), dtype=bool)
    adopted_b = np.zeros((num_worlds, graph.num_nodes), dtype=bool)
    done = 0
    for adopted in chunks:
        stop = done + adopted.shape[0]
        adopted_a[done:stop] = adopted[:, :, ITEM_A]
        adopted_b[done:stop] = adopted[:, :, ITEM_B]
        done = stop
    return BatchComICResult(adopted_a, adopted_b)


def batch_comic_counts(
    graph: InfluenceGraph,
    model: ComICModel,
    seeds_a: Sequence[int],
    seeds_b: Sequence[int],
    item: int,
    num_worlds: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-world int64 adopter counts of ``item`` over Com-IC worlds.

    Runs the worlds of :func:`batch_simulate_comic` (same chunks, same
    draws, so the counts equal its ``adopter_counts(item)``) but reduces
    each chunk to one count per world: no per-node state outlives its
    chunk.
    """
    check_item(item)
    chunks = _comic_chunks(graph, model, seeds_a, seeds_b, num_worlds, rng)
    counts = np.zeros(num_worlds, dtype=np.int64)
    done = 0
    for adopted in chunks:
        stop = done + adopted.shape[0]
        counts[done:stop] = adopted[:, :, item].sum(axis=1)
        done = stop
    return counts


# ----------------------------------------------------------------------
# UIC
# ----------------------------------------------------------------------
@dataclass
class BatchUICResult:
    """Adoption masks and realized welfare of a batch of UIC worlds.

    ``adopted`` is ``(num_worlds, n)`` uint8 itemset masks (bit ``i`` set
    iff the node adopted item ``i``); ``welfare`` is the per-world realized
    social welfare ``Σ_v U_W(A(v))``.
    """

    adopted: np.ndarray
    welfare: np.ndarray

    def adopter_counts(self, item: Optional[int] = None) -> np.ndarray:
        """Per-world adoption totals (all (node, item) pairs, or one item)."""
        return _adoption_table(item)[self.adopted].sum(axis=1)


def supports_batched_uic(
    model: UtilityModel, triggering: Optional[TriggeringModel]
) -> bool:
    """Whether the batched UIC engine covers this (model, triggering) pair.

    Requires an item universe small enough for the ``3^k`` decision-table
    construction and a triggering model the vectorized world sampler can
    realize: the IC fast path, or any model with an explicit trigger
    distribution (LT and every :class:`DistributionTriggering`).
    """
    if model.num_items > MAX_BATCH_ITEMS:
        return False
    if triggering is None or isinstance(
        triggering, IndependentCascadeTriggering
    ):
        return True
    return has_trigger_distribution(triggering)


def warn_uic_item_cap_fallback(
    model: UtilityModel, stacklevel: int = 3
) -> None:
    """Warn that a batched-backend request is degrading to sequential.

    Called by the UIC estimators on a batched context when the item
    universe exceeds :data:`MAX_BATCH_ITEMS`, where every world runs the
    interpreted simulator.  ``stacklevel`` counts from this function, so
    the warning names the estimator's caller.
    """
    if model.num_items > MAX_BATCH_ITEMS:
        warnings.warn(
            f"batched UIC engine supports at most {MAX_BATCH_ITEMS} items; "
            f"model has {model.num_items} — falling back to the sequential "
            "per-world simulator (expect an order-of-magnitude slowdown). "
            "Shrink the item universe or use a sequential EngineContext "
            "to silence this warning.",
            UserWarning,
            stacklevel=stacklevel,
        )


def _popcounts(size: int) -> np.ndarray:
    """Bit-count lookup table for masks ``0 .. size-1``."""
    masks = np.arange(size, dtype=np.int64)
    counts = np.zeros(size, dtype=np.int64)
    while masks.any():
        counts += masks & 1
        masks >>= 1
    return counts


def _adoption_table(item: Optional[int]) -> np.ndarray:
    """Adoptions each uint8 itemset mask counts: all items, or ``item``'s."""
    if item is None:
        return _popcounts(256)
    return (np.arange(256, dtype=np.int64) >> item) & 1


def _decision_tables(tables: np.ndarray) -> np.ndarray:
    """Tabulate the adoption rule for every world and (desire, adopted) pair.

    ``tables`` is ``(num_worlds, 2^k)`` realized utilities;  the result
    ``decision[w, desire, adopted]`` equals
    ``adopt(tables[w], desire, adopted)`` for every valid pair (``adopted ⊆
    desire``; other cells stay 0 and are never read).  One vectorized pass
    per (desire, adopted) pair — ``3^k`` numpy evaluations total — instead
    of a Python subset enumeration per touched (world, node).  Ties within
    ``TIE_TOL`` are resolved exactly like :func:`repro.diffusion.adoption.
    adopt``: union of tied maximizers if the union keeps the utility,
    else the largest (earliest-enumerated) single maximizer.
    """
    num_worlds, size = tables.shape
    popcount = _popcounts(size)
    decision = np.zeros((num_worlds, size, size), dtype=np.uint8)
    for desire in range(size):
        for extra_base in iter_subsets(desire):
            adopted = desire & ~extra_base  # adopted ranges over subsets too
            free = desire & ~adopted
            cands = np.fromiter(
                (adopted | extra for extra in iter_subsets(free)),
                dtype=np.int64,
            )
            if cands.shape[0] == 1:
                decision[:, desire, adopted] = adopted
                continue
            values = tables[:, cands]
            best = values.max(axis=1)
            tied = values >= (best - TIE_TOL)[:, None]
            union = np.bitwise_or.reduce(
                np.where(tied, cands[None, :], 0), axis=1
            )
            # Largest tied candidate, earliest enumeration order on size
            # ties — the sequential rule's fallback preference.
            count = cands.shape[0]
            rank = popcount[cands] * count - np.arange(count)
            single = cands[np.where(tied, rank[None, :], -1).argmax(axis=1)]
            union_value = np.take_along_axis(
                tables, union[:, None], axis=1
            )[:, 0]
            decision[:, desire, adopted] = np.where(
                union_value >= best - 1e-9, union, single
            )
    return decision


class _LazyTriggerLog:
    """Trigger sets sampled lazily per first-*targeted* (world, node).

    Under a triggering model, edge ``(u, v)`` is live in world ``w`` iff
    ``u`` lies in ``v``'s sampled trigger set — the decision belongs to the
    *target*.  Pre-sampling every ``(world, node)`` trigger set up front
    (the historical path) pays ``O(batch × n)`` draws and ``O(batch × m)``
    member memory even though a cascade only ever consults the targets its
    frontier actually points at.  This log defers each pair's draw to the
    first round some frontier edge reaches it (the deferred-decision
    principle: at most one draw per pair, fixed thereafter), bounding both
    cost and memory by the *reached* neighborhood instead of the world.

    Sampled pairs accrue in per-round segments: sorted pair keys
    ``w·n + v`` with a CSR of trigger members, each member list sorted so a
    combined key ``(w·n + v)·n + u`` is globally sorted within the segment
    and edge-liveness queries resolve to one ``np.searchsorted`` per
    segment.  Re-propagations (a node spreading additional items later)
    re-test membership against the same fixed draws — deterministic, no
    fresh randomness.
    """

    __slots__ = ("_n", "_csr", "_sampled", "_seg_edge_keys")

    def __init__(self, batch: int, n: int, csr: TriggerCSR):
        self._n = n
        self._csr = csr
        self._sampled = np.zeros((batch, n), dtype=bool)
        self._seg_edge_keys: List[np.ndarray] = []

    def live_mask(
        self,
        rng: np.random.Generator,
        w: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
    ) -> np.ndarray:
        """Which candidate edges ``(u[i] -> v[i], world w[i])`` are live."""
        n = self._n
        pair_keys = w * n + v
        fresh = ~self._sampled[w, v]
        if fresh.any():
            new_keys = distinct_sorted(pair_keys[fresh])
            nv = new_keys % n
            members, degs = _sample_trigger_members(
                self._csr, nv, rng.random(new_keys.shape[0])
            )
            self._sampled[new_keys // n, nv] = True
            if members.shape[0]:
                rep = np.repeat(new_keys, degs)
                # Sort members within each pair so the combined (pair,
                # member) key is globally ascending in the segment.
                edge_keys = np.sort(rep * n + members)
                self._seg_edge_keys.append(edge_keys)
        live = np.zeros(w.shape[0], dtype=bool)
        query = pair_keys * n + u
        for edge_keys in self._seg_edge_keys:
            pos = np.searchsorted(edge_keys, query)
            safe = np.minimum(pos, edge_keys.shape[0] - 1)
            live |= edge_keys[safe] == query
        return live


def _seed_masks(
    allocation: Iterable[Tuple[int, int]], n: int, k: int
) -> np.ndarray:
    """Per-node uint8 itemset masks of a seed allocation, range-checked."""
    desire0 = np.zeros(n, dtype=np.uint8)
    for node, item in allocation:
        node = int(node)
        if not 0 <= node < n:
            raise IndexError(f"seed node {node} outside graph")
        if not 0 <= int(item) < k:
            raise IndexError(f"item {item} outside universe")
        desire0[node] |= 1 << int(item)
    return desire0


class _WorldTables:
    """One noise world, utility table and decision table per world.

    The base UIC model: every world's tables exist from the chunk's
    start, so :meth:`ensure` has nothing to draw.
    """

    __slots__ = ("_tables", "_decision")

    def __init__(self, model, rng, batch, n, noise_world):
        if noise_world is None:
            noises = model.noise.sample_batch(rng, batch)
        else:
            noises = np.broadcast_to(
                np.asarray(noise_world, dtype=np.float64),
                (batch, model.num_items),
            )
        self._tables = model.utility_tables(noises)
        self._decision = _decision_tables(self._tables)

    @staticmethod
    def chunk_bytes(n: int, size: int) -> int:
        # desire+adopted masks (16 per node), the live-edge / lazy-trigger
        # log's bitmap (1 per node), utility and decision tables.
        return 33 * n + 8 * (size + size * size)

    def ensure(self, rng, w: np.ndarray, v: np.ndarray) -> None:
        pass

    def decide(self, w, v, desire, adopted) -> np.ndarray:
        """``adopt`` under each pair's world's noise."""
        return self._decision[w, desire, adopted]

    def realized_welfare(self, adopted: np.ndarray) -> np.ndarray:
        """Per-world welfare ``Σ_v U_W(A(v))`` over adopters."""
        # Zeroed in place: np.where's second (batch, n) float64
        # temporary made welfare_20k's 2000-world estimate up to 10%
        # slower.
        realized = np.take_along_axis(self._tables, adopted, axis=1)
        realized[adopted == 0] = 0.0
        return realized.sum(axis=1)


def _uic_chunks(
    graph: InfluenceGraph,
    model: UtilityModel,
    allocation: Iterable[Tuple[int, int]],
    num_worlds: int,
    rng: np.random.Generator,
    noise_world: Optional[NoiseWorld],
    triggering: Optional[TriggeringModel],
    tables: type = _WorldTables,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Validate a batched UIC run, then return its chunk iterator.

    The iterator simulates the worlds chunk by chunk and yields each
    chunk's ``(adopted, welfare)``: ``(batch, n)`` uint8 itemset masks and
    the realized welfare of each world.  Chunk sizes depend on the
    arguments alone, never on the consumer, so every consumer of the same
    arguments and stream sees the same worlds.

    ``tables`` is the class of each chunk's adoption tables:
    :class:`_WorldTables`, or :class:`_PersonalTables` for the §5
    personalized-noise variant.  The loop only asks them to ``ensure``
    tables for touched pairs, ``decide`` adoptions and sum the
    ``realized_welfare``.
    """
    n = graph.num_nodes
    k = model.num_items
    if num_worlds < 0:
        raise ValueError(f"num_worlds must be non-negative, got {num_worlds}")
    if not supports_batched_uic(model, triggering):
        raise ValueError(
            f"batched UIC needs <= {MAX_BATCH_ITEMS} items and a "
            "vectorizable triggering model; use the sequential simulator"
        )
    desire0 = _seed_masks(allocation, n, k)
    seed_nodes = np.flatnonzero(desire0)

    ic_path = triggering is None or isinstance(
        triggering, IndependentCascadeTriggering
    )
    trigger_csr = None if ic_path else build_trigger_csr(graph, triggering)
    # Per-world bytes (``tables.chunk_bytes``) count the uint8 masks and
    # decision tables as 8 bytes each: the count fixes the chunk sizes
    # and with them the order of draws, which every seeded estimate
    # reproduces.  The lazy trigger log's member segments scale with the
    # *reached* neighborhood; chunking budgets their worst case (every
    # trigger set drawn, ~8 bytes per member, <= 8m per world) so a
    # full-reach cascade still respects _TARGET_BYTES.
    bytes_per_world = tables.chunk_bytes(n, 1 << k)
    if not ic_path:
        bytes_per_world += 8 * graph.num_edges

    def run() -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        for batch in _world_chunks(num_worlds, bytes_per_world):
            chunk = tables(model, rng, batch, n, noise_world)
            if ic_path:
                live_log = _LiveEdgeLog(batch, n)
            else:
                trigger_log = _LazyTriggerLog(batch, n, trigger_csr)

            desire = np.zeros((batch, n), dtype=np.uint8)
            adopted = np.zeros((batch, n), dtype=np.uint8)
            # t = 1: seeds desire their allocation and adopt the
            # utility-maximizing subset (rational users, like everyone
            # else).
            fw, fn = _seed_frontier(seed_nodes, batch)
            desire[fw, fn] = desire0[fn]
            chunk.ensure(rng, fw, fn)
            adopted[fw, fn] = chunk.decide(
                fw, fn, desire0[fn], np.zeros(fw.shape[0], dtype=np.uint8)
            )
            keep = adopted[fw, fn] != 0
            fw, fn = fw[keep], fn[keep]

            while fw.size:
                # Gather each frontier node's live out-targets.
                if ic_path:
                    entry, t = live_log.live_targets(graph, rng, fw, fn)
                    if entry.size == 0:
                        break
                    w = fw[entry]
                    src_mask = adopted[fw, fn][entry]
                else:
                    # Candidate out-edges of the frontier; each target's
                    # trigger set is drawn lazily on first contact, then an
                    # edge is live iff its source is among the drawn
                    # members.
                    gathered = _gather_out_edges(graph, fn)
                    if gathered is None:
                        break
                    t, _, degs, _ = gathered
                    w = np.repeat(fw, degs)
                    cand_u = np.repeat(fn, degs)
                    src_mask = np.repeat(adopted[fw, fn], degs)
                    live = trigger_log.live_mask(rng, w, cand_u, t)
                    w, t, src_mask = w[live], t[live], src_mask[live]
                if w.size == 0:
                    break
                # OR all incoming masks per touched (world, target) pair.
                tw, tv, incoming = _or_by_pair(w, t, src_mask, n)
                new_desire = desire[tw, tv] | incoming
                grew = new_desire != desire[tw, tv]
                tw, tv, new_desire = tw[grew], tv[grew], new_desire[grew]
                if tw.size == 0:
                    break
                desire[tw, tv] = new_desire
                chunk.ensure(rng, tw, tv)
                old = adopted[tw, tv]
                new = chunk.decide(tw, tv, new_desire, old)
                changed = new != old
                fw, fn = tw[changed], tv[changed]
                adopted[fw, fn] = new[changed]

            yield adopted, chunk.realized_welfare(adopted)

    return run()


def batch_simulate_uic(
    graph: InfluenceGraph,
    model: UtilityModel,
    allocation: Iterable[Tuple[int, int]],
    num_worlds: int,
    rng: np.random.Generator,
    noise_world: Optional[NoiseWorld] = None,
    triggering: Optional[TriggeringModel] = None,
) -> BatchUICResult:
    """Simulate ``num_worlds`` UIC possible worlds at once.

    Each world samples its own noise world (unless a fixed ``noise_world``
    is supplied) and edge world, then runs the utility-maximizing adoption
    dynamics of :func:`repro.diffusion.uic.simulate_uic` to the fixpoint;
    per-world outcomes are distributed identically to the sequential
    simulator's.  ``triggering`` follows the §5 extension: ``None`` is the
    IC fast path, anything else must satisfy :func:`supports_batched_uic`.
    Keeps every world's per-node masks; the estimators call
    :func:`batch_uic_welfare` or :func:`batch_uic_counts`, which run the
    same worlds and keep one number per world.
    """
    chunks = _uic_chunks(
        graph, model, allocation, num_worlds, rng, noise_world, triggering
    )
    adopted = np.zeros((num_worlds, graph.num_nodes), dtype=np.uint8)
    welfare = np.zeros(num_worlds, dtype=np.float64)
    done = 0
    for chunk_adopted, chunk_welfare in chunks:
        stop = done + chunk_welfare.shape[0]
        adopted[done:stop] = chunk_adopted
        welfare[done:stop] = chunk_welfare
        done = stop
    return BatchUICResult(adopted, welfare)


def _uic_per_world(
    chunks: Iterator[Tuple[np.ndarray, np.ndarray]],
    num_worlds: int,
    reduce: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Concatenate ``reduce(adopted, welfare)`` over the chunks of UIC worlds.

    Each chunk shrinks to one value per world before the next one runs,
    so no per-node state outlives its chunk.  A ``diffusion.batch_uic``
    span records ``chunks`` and ``worlds_per_chunk``.
    """
    with obs.span("diffusion.batch_uic", worlds=int(num_worlds)) as span:
        parts = [reduce(adopted, welfare) for adopted, welfare in chunks]
        span.set(
            chunks=len(parts),
            worlds_per_chunk=max((p.shape[0] for p in parts), default=0),
        )
    return np.concatenate(parts) if parts else np.zeros(0)


def batch_uic_welfare(
    graph: InfluenceGraph,
    model: UtilityModel,
    allocation: Iterable[Tuple[int, int]],
    num_worlds: int,
    rng: np.random.Generator,
    noise_world: Optional[NoiseWorld] = None,
    triggering: Optional[TriggeringModel] = None,
) -> np.ndarray:
    """Per-world realized welfare of UIC worlds.

    Runs the worlds of :func:`batch_simulate_uic` (same chunks, same
    draws, so the values equal its ``welfare``) and keeps nothing else.
    """
    chunks = _uic_chunks(
        graph, model, allocation, num_worlds, rng, noise_world, triggering
    )
    return _uic_per_world(chunks, num_worlds, lambda _, welfare: welfare)


def batch_uic_counts(
    graph: InfluenceGraph,
    model: UtilityModel,
    allocation: Iterable[Tuple[int, int]],
    item: Optional[int],
    num_worlds: int,
    rng: np.random.Generator,
    triggering: Optional[TriggeringModel] = None,
) -> np.ndarray:
    """Per-world int64 adopter counts of ``item`` (every item if ``None``).

    Runs the worlds of :func:`batch_simulate_uic` (same chunks, same
    draws, so the counts equal its ``adopter_counts(item)``).
    """
    if item is not None and not 0 <= item < model.num_items:
        raise ValueError(f"item {item} outside the model's {model.num_items} items")
    table = _adoption_table(item)
    chunks = _uic_chunks(
        graph, model, allocation, num_worlds, rng, None, triggering
    )
    return _uic_per_world(
        chunks, num_worlds, lambda adopted, _: table[adopted].sum(axis=1)
    )


class _PersonalTables:
    """Lazily sampled per-(world, node) noise, utility and decision tables.

    The §5 personalized-noise variant gives every *node* its own noise
    world, so the per-world decision table of :func:`batch_simulate_uic`
    becomes per-(world, node).  Materializing all ``batch × n`` of them
    would dwarf the rest of the state; instead each pair samples its noise
    the first time it has to make an adoption decision — exactly the lazy
    semantics of :func:`repro.diffusion.personalized.
    simulate_uic_personalized` — and the tables of all fresh pairs in a
    round are built in one vectorized ``_decision_tables`` call.  Rows
    accrue in doubling arrays; ``row_of`` maps (world, node) to its row.
    """

    __slots__ = ("_model", "_row", "_tables", "_decision", "_used")

    def __init__(self, model, rng, batch, n, noise_world):
        # Nothing is drawn up front and no noise is shared, so ``rng``
        # and ``noise_world`` (always ``None``) go unused.
        size = 1 << model.num_items
        self._model = model
        self._row = np.full((batch, n), -1, dtype=np.int64)
        self._tables = np.empty((16, size), dtype=np.float64)
        self._decision = np.empty((16, size, size), dtype=np.uint8)
        self._used = 0

    @staticmethod
    def chunk_bytes(n: int, size: int) -> int:
        # desire/adopted masks + the row map (8 each per node) + the
        # live-edge log's bitmap, plus the per-pair tables budgeted as if
        # every node were touched, so a full-reach cascade cannot blow
        # past _TARGET_BYTES (k = 2, the paper's personalized setting,
        # still batches hundreds of worlds).  The tables grow on demand,
        # so light-reach cascades never allocate the worst case.
        return (25 + 8 * (size + size * size)) * n

    def ensure(
        self, rng: np.random.Generator, w: np.ndarray, v: np.ndarray
    ) -> None:
        """Sample tables for the not-yet-seen pairs among ``(w, v)``.

        Pairs must be unique within the call (they are: callers pass the
        de-duplicated touched set of a round).
        """
        fresh = self._row[w, v] < 0
        count = int(fresh.sum())
        if count == 0:
            return
        noises = self._model.noise.sample_batch(rng, count)
        tables = self._model.utility_tables(noises)
        need = self._used + count
        if need > self._tables.shape[0]:
            cap = max(need, 2 * self._tables.shape[0])
            grown_t = np.empty((cap,) + self._tables.shape[1:], dtype=np.float64)
            grown_t[: self._used] = self._tables[: self._used]
            self._tables = grown_t
            grown_d = np.empty(
                (cap,) + self._decision.shape[1:], dtype=np.uint8
            )
            grown_d[: self._used] = self._decision[: self._used]
            self._decision = grown_d
        self._tables[self._used : need] = tables
        self._decision[self._used : need] = _decision_tables(tables)
        self._row[w[fresh], v[fresh]] = self._used + np.arange(count)
        self._used = need

    def decide(
        self, w: np.ndarray, v: np.ndarray, desire: np.ndarray,
        adopted: np.ndarray,
    ) -> np.ndarray:
        """``adopt`` under each pair's private noise (tables must exist)."""
        rows = self._row[w, v]
        return self._decision[rows, desire, adopted]

    def realized_welfare(
        self, adopted: np.ndarray
    ) -> np.ndarray:
        """Per-world welfare ``Σ_v U_{W(v)}(A(v))`` over adopters."""
        batch = adopted.shape[0]
        welfare = np.zeros(batch, dtype=np.float64)
        w, v = np.nonzero(adopted > 0)
        if w.size:
            values = self._tables[self._row[w, v], adopted[w, v]]
            welfare = np.bincount(w, weights=values, minlength=batch)
        return welfare


def batch_simulate_uic_personalized(
    graph: InfluenceGraph,
    model: UtilityModel,
    allocation: Iterable[Tuple[int, int]],
    num_worlds: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-world welfare of ``num_worlds`` personalized-noise UIC worlds.

    The batched twin of :func:`repro.diffusion.personalized.
    simulate_uic_personalized`: the worlds run through the UIC chunk
    loop with :class:`_PersonalTables`, so every (world, node) pair draws
    its own noise world lazily on first contact, and live edges follow
    the lazy first-visit IC log.  Returns the per-world realized welfare
    (the quantity the personalized-noise ablation estimates); outcome
    distributions match the sequential simulator's world for world.
    """
    chunks = _uic_chunks(
        graph, model, allocation, num_worlds, rng, None, None,
        _PersonalTables,
    )
    return _uic_per_world(chunks, num_worlds, lambda _, welfare: welfare)
