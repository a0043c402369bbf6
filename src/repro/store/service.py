"""The online query layer over a loaded sketch store.

:class:`OracleService` answers the three §2.1 oracle query families from a
:class:`~repro.store.sketch_store.SketchStore` without any resampling:

* **seed-prefix** — ``seeds(b)`` returns the stored prefix-preserving
  ordering's first ``b`` nodes, O(b) per query;
* **spread estimation** — ``estimate_spread(S)`` computes ``n · F_R(S)``
  over the persisted estimation collection via its inverted index; with a
  memory-mapped store only the index pages the queried seeds touch are
  faulted in;
* **bundleGRD allocation** — ``allocate(b)`` runs Algorithm 1 against the
  stored seed order (no PRIMA re-run).

This is the repository's one influence oracle: the builders in
:mod:`repro.store.builder` hand it an in-memory store, and
:meth:`OracleService.open` a memory-mapped one.  Answers are *identical*
either way: the seed order is persisted verbatim and the spread estimator
operates on the same RR collection, so ``OracleService.open(path, graph)``
in a fresh process answers query for query with the numbers of the PRIMA
run and estimation collection that produced the store (the golden
contract in ``tests/test_store.py``).
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graph.digraph import InfluenceGraph
from repro.store.format import INDEX_DTYPE, WORLDS_DTYPE
from repro.store.sketch_store import SketchStore

PathLike = Union[str, Path]


class OracleService:
    """Serve influence-oracle queries from a (memory-mapped) sketch store.

    Parameters
    ----------
    store:
        A loaded :class:`SketchStore`.
    graph:
        The social network the store was built from.  Required for
        allocation queries; when given, the store's fingerprint is checked
        up front (``StaleStoreError`` on mismatch) unless ``verify=False``.
    verify:
        Disable the fingerprint check (callers that already verified).
    expect_fingerprint:
        The fingerprint the store *must* carry.  Graph-less serving paths
        (the :class:`~repro.serving.router.StoreRouter`) have no CSR to
        re-hash, but they do know which fingerprint a key was first
        opened with — passing it here closes the hole where swapping a
        well-formed store file built from a *different* graph under the
        same key would serve silently wrong answers.
    """

    def __init__(
        self,
        store: SketchStore,
        graph: Optional[InfluenceGraph] = None,
        verify: bool = True,
        expect_fingerprint: Optional[str] = None,
    ):
        if expect_fingerprint is not None and store.fingerprint != expect_fingerprint:
            from repro.store.sketch_store import StaleStoreError

            raise StaleStoreError(
                f"store carries fingerprint {store.fingerprint[:16]}… but "
                f"{expect_fingerprint[:16]}… was expected for this key; "
                "refusing to serve a swapped artifact"
            )
        if graph is not None and verify:
            store.verify_graph(graph)
        self._store = store
        self._graph = graph

    @classmethod
    def open(
        cls,
        path: PathLike,
        graph: Optional[InfluenceGraph] = None,
        mmap: bool = True,
        expect_fingerprint: Optional[str] = None,
    ) -> "OracleService":
        """Load a store file and wrap it (the one-call warm start)."""
        return cls(
            SketchStore.load(path, mmap=mmap),
            graph,
            expect_fingerprint=expect_fingerprint,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def store(self) -> SketchStore:
        """The underlying sketch store."""
        return self._store

    @property
    def model(self) -> str:
        """The sketch model served: ``"prima"`` or ``"comic"``."""
        return self._store.model

    @property
    def max_budget(self) -> int:
        """Largest budget the stored ordering serves."""
        return self._store.max_budget

    @property
    def num_sets(self) -> int:
        """Size θ of the persisted estimation collection."""
        return self._store.num_sets

    @property
    def seed_order(self) -> Tuple[int, ...]:
        """The full prefix-preserving ordering."""
        return tuple(int(v) for v in self._store.seed_order)

    def verify_graph(self, graph: InfluenceGraph) -> None:
        """Fingerprint-check the store against ``graph`` (delegates)."""
        self._store.verify_graph(graph)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def seeds(self, budget: int) -> Tuple[int, ...]:
        """Seed set for any budget ``<= max_budget`` — O(budget) per query."""
        if not 0 <= budget <= self.max_budget:
            raise ValueError(
                f"budget {budget} outside the store's range "
                f"[0, {self.max_budget}]"
            )
        return tuple(int(v) for v in self._store.seed_order[:budget])

    def coverage_fraction(self, seeds: Sequence[int]) -> float:
        """``F_R(S)`` over the persisted estimation collection."""
        store = self._store
        num_sets = store.num_sets
        if num_sets == 0:
            return 0.0
        covered = np.zeros(num_sets, dtype=WORLDS_DTYPE)
        idx_sets = store.idx_sets
        idx_indptr = store.idx_indptr
        for s in seeds:
            s = int(s)
            if not 0 <= s < store.num_nodes:
                raise IndexError(
                    f"node {s} out of range [0, {store.num_nodes})"
                )
            covered[idx_sets[idx_indptr[s] : idx_indptr[s + 1]]] = True
        return float(covered.sum()) / num_sets

    def coverage_fractions(
        self, seed_sets: Sequence[Sequence[int]]
    ) -> List[float]:
        """``F_R`` for a *batch* of queries in one vectorized scatter.

        The serving layer's coalescing path: B concurrent spread queries
        against the same store become one ``(B, θ)`` boolean scatter —
        the per-query python loop over seeds collapses into a single
        segmented gather over the inverted index.  Answers are
        byte-for-byte what B sequential :meth:`coverage_fraction` calls
        return (both sum the same boolean matrix and divide by the same
        θ), which the serving tests pin.

        Memory is ``B × θ`` bytes of scratch; the router's batcher caps
        B (``max_batch``), so a serving deployment bounds this at
        ``max_batch × θ``.
        """
        store = self._store
        num_sets = store.num_sets
        num_queries = len(seed_sets)
        if num_queries == 0:
            return []
        if num_sets == 0:
            return [0.0] * num_queries
        set_lengths = np.fromiter(
            (len(s) for s in seed_sets), count=num_queries, dtype=INDEX_DTYPE
        )
        total = int(set_lengths.sum())
        if total == 0:
            return [0.0] * num_queries
        flat_seeds = np.fromiter(
            (int(s) for seeds in seed_sets for s in seeds),
            count=total,
            dtype=INDEX_DTYPE,
        )
        if flat_seeds.size and (
            int(flat_seeds.min()) < 0 or int(flat_seeds.max()) >= store.num_nodes
        ):
            bad = flat_seeds[
                (flat_seeds < 0) | (flat_seeds >= store.num_nodes)
            ][0]
            raise IndexError(
                f"node {int(bad)} out of range [0, {store.num_nodes})"
            )
        idx_indptr = np.asarray(store.idx_indptr)
        starts = idx_indptr[flat_seeds]
        counts = idx_indptr[flat_seeds + 1] - starts
        expanded = int(counts.sum())
        covered = np.zeros((num_queries, num_sets), dtype=WORLDS_DTYPE)
        if expanded:
            # Segmented gather: positions of every (seed -> set id) pair in
            # idx_sets, all slices at once (the node_selection idiom).
            shifts = np.cumsum(counts) - counts
            flat_pos = np.repeat(starts - shifts, counts) + np.arange(expanded)
            rows = np.repeat(
                np.repeat(np.arange(num_queries), set_lengths), counts
            )
            covered[rows, np.asarray(store.idx_sets)[flat_pos]] = True
        hits = covered.sum(axis=1)
        return [float(h) / num_sets for h in hits]

    def estimate_spread(self, seeds: Sequence[int]) -> float:
        """Unbiased spread estimate ``σ(S) ≈ n · F_R(S)``."""
        return self._store.num_nodes * self.coverage_fraction(seeds)

    def spread_curve(
        self, budgets: Sequence[int]
    ) -> List[Tuple[int, float]]:
        """(budget, estimated spread) along the stored prefix ordering."""
        return [
            (int(k), self.estimate_spread(self.seeds(int(k))))
            for k in budgets
        ]

    def allocate(self, budgets: Sequence[int]):
        """Run bundleGRD against the stored ordering — no new sampling.

        Requires the service to hold the graph.  Returns a
        :class:`repro.core.bundlegrd.BundleGRDResult`.
        """
        if self._graph is None:
            raise ValueError(
                "allocation queries need the graph; construct the service "
                "with OracleService(store, graph) or open(path, graph)"
            )
        if self._store.model != "prima":
            raise ValueError(
                "bundleGRD allocation needs a PRIMA prefix-preserving "
                f"order; this is a {self._store.model!r} store (its seeds "
                "answer seed/spread queries only)"
            )
        from repro.core.bundlegrd import bundle_grd

        budgets = [int(b) for b in budgets]
        if budgets and max(budgets) > self.max_budget:
            raise ValueError(
                f"budget {max(budgets)} exceeds the store's max "
                f"{self.max_budget}"
            )
        # Pass the raw order: the store/graph pairing was fingerprint-
        # checked at construction, and re-hashing the whole CSR per
        # allocation query would defeat the cheap online phase.
        return bundle_grd(self._graph, budgets, seed_order=self.seed_order)

    def __repr__(self) -> str:
        return (
            f"OracleService(n={self._store.num_nodes}, "
            f"max_budget={self.max_budget}, num_sets={self.num_sets})"
        )
