"""The on-disk RR-sketch format: header + memory-mappable flat arrays.

Layout (all integers little-endian)::

    bytes 0..7     magic  b"REPROSKT"
    bytes 8..15    uint64 header length H
    bytes 16..16+H JSON header (utf-8)
    ...            zero padding to the next 64-byte boundary
    data section   the arrays, each starting on a 64-byte boundary

The JSON header carries ``format_version``, a ``meta`` object (graph
fingerprint, engine parameters, backend, world cursor, RNG bit-generator
state) and an ``arrays`` table mapping each array name to its dtype, shape
and byte offset *relative to the data section*.  Relative offsets keep the
array table independent of the header's own serialized length; the data
section starts at the first 64-byte boundary past the header.

Format v2 adds a ``model`` discriminator (``prima`` — the only v1 model —
or ``comic``) and, for Com-IC/GAP sketches, a ``comic`` metadata block
(GAP parameters, derived adoption coins, select item, fixed seeds, KPT
bookkeeping) plus one extra aligned array: the ``(num_worlds, n)``
boolean forward-adopter bitmap the GAP walks are paired against.  V1
files still load (``SUPPORTED_VERSIONS``); v1 refuses to serialize comic
sketches.

Because every array is a contiguous typed block at a known offset,
:meth:`SketchStore.load` can hand back ``np.memmap`` views — the serving
layer answers queries without ever materializing the (potentially
multi-gigabyte) member log in RAM, and the OS page cache is shared across
serving processes.

Failure modes are explicit:

* :class:`SketchStoreError` — malformed file: bad magic, unparseable or
  truncated header, arrays pointing past EOF, internally inconsistent CSR
  invariants, unsupported ``format_version``.
* :class:`StaleStoreError` — a well-formed store whose graph fingerprint
  does not match the graph it is being served against.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro import obs
from repro.graph.digraph import InfluenceGraph
from repro.graph.io import graph_fingerprint
from repro.store import blockfile
from repro.store.format import (
    ARRAY_NAMES,
    FORMAT_VERSION,
    INDEX_DTYPE,
    MAGIC,
    MODELS,
    SUPPORTED_VERSIONS,
    WORLDS_DTYPE,
    canonical_index_array,
)

PathLike = Union[str, Path]

_STORE_IO_SECONDS = obs.histogram(
    "repro_store_io_seconds",
    "Wall-clock of store serialization operations",
    labels=("op",),
)
_STORE_MMAP_BYTES = obs.counter(
    "repro_store_mmap_bytes_total",
    "Bytes memory-mapped (or materialized) by store loads",
    labels=("mode",),
)
_STORE_FPRINT_CHECKS = obs.counter(
    "repro_store_fingerprint_checks_total",
    "Graph-fingerprint verifications against loaded stores",
    labels=("result",),
)


class SketchStoreError(RuntimeError):
    """A sketch-store file is malformed, truncated, or unsupported."""


class StaleStoreError(SketchStoreError):
    """A store's graph fingerprint does not match the serving graph."""


def _jsonable_rng_state(state: Optional[dict]) -> Optional[dict]:
    """Make a bit-generator state dict JSON-serializable.

    PCG64 (the `default_rng` family) states are plain ints already;
    MT19937-style states carry a numpy ``key`` array, which round-trips
    through a list.  Applied recursively so nested ``state`` dicts are
    covered.
    """
    if state is None:
        return None
    out = {}
    for name, value in state.items():
        if isinstance(value, dict):
            out[name] = _jsonable_rng_state(value)
        elif isinstance(value, np.ndarray):
            out[name] = {"__ndarray__": value.dtype.str,
                         "data": value.tolist()}
        elif isinstance(value, np.integer):
            out[name] = int(value)
        else:
            out[name] = value
    return out


def _restore_rng_state(state: dict) -> dict:
    """Inverse of :func:`_jsonable_rng_state`."""
    out = {}
    for name, value in state.items():
        if isinstance(value, dict):
            if "__ndarray__" in value:
                out[name] = np.asarray(
                    value["data"], dtype=np.dtype(value["__ndarray__"])
                )
            else:
                out[name] = _restore_rng_state(value)
        else:
            out[name] = value
    return out


@dataclass
class SketchStore:
    """A persisted influence-oracle sketch: metadata + flat arrays.

    ``members``/``offsets`` are the RR collection's CSR over sets,
    ``idx_sets``/``idx_indptr`` its node -> set-ids inverted index,
    ``widths[i]`` the width ``w(R_i)`` (total in-degree of set ``i``'s
    members, the paper's running-time accounting unit) and ``cover_counts``
    the per-node set counts.  ``seed_order`` is PRIMA's prefix-preserving
    ordering for budgets up to ``max_budget``.  ``world_cursor`` records how
    many forward worlds a world-paired sampler (the GAP-aware Com-IC RIS
    phase) has consumed, so cross-phase pairing survives a round trip;
    plain IC/LT oracle stores keep it at 0.  ``rng_state`` is the sampling
    generator's bit-generator state — restoring it makes θ-extension of a
    loaded store byte-identical to never having saved at all.

    Arrays returned by :meth:`load` may be read-only ``np.memmap`` views;
    treat every field as immutable and build modified copies via
    :func:`dataclasses.replace`.
    """

    fingerprint: str
    num_nodes: int
    num_edges: int
    max_budget: int
    epsilon: float
    ell: float
    backend: str
    triggering: Optional[str]
    world_cursor: int
    rng_state: Optional[dict]
    seed_order: np.ndarray
    members: np.ndarray
    offsets: np.ndarray
    widths: np.ndarray
    idx_sets: np.ndarray
    idx_indptr: np.ndarray
    cover_counts: np.ndarray
    #: Sketch model: ``"prima"`` (plain influence oracle, the only v1
    #: model) or ``"comic"`` (GAP-aware Com-IC RIS sketches, v2+).
    model: str = "prima"
    #: Com-IC metadata (GAP parameters, select item, fixed seeds, forward
    #: world count, KPT bookkeeping); ``None`` for prima stores.
    comic: Optional[dict] = None
    #: ``(num_worlds, n)`` boolean forward-adopter bitmap the GAP walks are
    #: paired against (comic stores only; ``None`` for prima stores).
    worlds: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def num_sets(self) -> int:
        """Number of persisted RR sets θ."""
        return int(self.offsets.shape[0] - 1)

    @property
    def closed(self) -> bool:
        """Has :meth:`close` released this store's arrays?"""
        return getattr(self, "_closed", False)

    def close(self) -> None:
        """Release the array references (and unmap memory-mapped pages).

        The serving router swaps stores hot: the replacement mmap goes
        live first, and the *old* store is closed only once its last
        reader drains.  Closing drops every array field (reads afterwards
        raise — a closed store must never serve) and then closes the
        underlying ``mmap`` objects so the pages disappear from the
        process immediately instead of lingering until a GC pass.  A
        still-exported buffer (an outstanding numpy view some caller
        kept) makes ``mmap.close`` raise ``BufferError``; that view keeps
        the pages alive and the mapping is released when it dies — the
        refcounted drain in :mod:`repro.serving.router` exists to make
        that case not happen.  Idempotent.
        """
        if self.closed:
            return
        mmaps = []
        for name in (*ARRAY_NAMES, "worlds"):
            arr = getattr(self, name, None)
            if isinstance(arr, np.memmap):
                mm = getattr(arr, "_mmap", None)
                if mm is not None:
                    mmaps.append(mm)
            setattr(self, name, None)
        self._closed = True
        for mm in mmaps:
            try:
                mm.close()
            except BufferError:  # pragma: no cover - leaked external view
                pass

    @property
    def total_width(self) -> int:
        """Total member count Σ|R| (the stored footprint metric)."""
        return int(self.offsets[-1])

    def verify_graph(self, graph: InfluenceGraph) -> None:
        """Raise :class:`StaleStoreError` unless built from ``graph``."""
        actual = graph_fingerprint(graph)
        _STORE_FPRINT_CHECKS.inc(
            result="ok" if actual == self.fingerprint else "stale"
        )
        if actual != self.fingerprint:
            raise StaleStoreError(
                f"store was built from a graph with fingerprint "
                f"{self.fingerprint[:16]}… but is being served against "
                f"{actual[:16]}… (n={graph.num_nodes}); rebuild the store"
            )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def save(
        self, path: PathLike, *, format_version: int = FORMAT_VERSION
    ) -> None:
        """Write the store; the file is self-describing and mmap-ready.

        The write goes to a temp file in the target directory and is
        renamed into place, so (a) saving over the file this store was
        memory-mapped from is safe — the source pages stay valid until the
        atomic replace — and (b) readers never observe a half-written
        store.

        ``format_version`` defaults to the current version (3 — index
        arrays narrowed to int32 wherever every value fits); versions 1
        and 2 can still be *written* (the forward-compat tests pin that
        old files keep loading), always with wide int64 index arrays,
        and version 1 cannot carry a comic sketch.
        """
        if format_version not in SUPPORTED_VERSIONS:
            raise SketchStoreError(
                f"cannot write format version {format_version!r} "
                f"(supported: {SUPPORTED_VERSIONS})"
            )
        if format_version < 2 and self.model != "prima":
            raise SketchStoreError(
                f"format version 1 cannot persist a {self.model!r} sketch; "
                "write version 2"
            )
        arrays: Dict[str, np.ndarray] = {
            name: canonical_index_array(
                getattr(self, name), format_version
            )
            for name in ARRAY_NAMES
        }
        if format_version >= 2 and self.worlds is not None:
            arrays["worlds"] = np.ascontiguousarray(
                np.asarray(self.worlds, dtype=WORLDS_DTYPE)
            )
        table = blockfile.array_table(arrays)
        meta = {
            "fingerprint": self.fingerprint,
            "num_nodes": int(self.num_nodes),
            "num_edges": int(self.num_edges),
            "max_budget": int(self.max_budget),
            "epsilon": float(self.epsilon),
            "ell": float(self.ell),
            "backend": self.backend,
            "triggering": self.triggering,
            "world_cursor": int(self.world_cursor),
            "num_sets": self.num_sets,
            "rng_state": _jsonable_rng_state(self.rng_state),
        }
        if format_version >= 2:
            meta["model"] = self.model
            meta["comic"] = self.comic
        header = {
            "format_version": format_version,
            "meta": meta,
            "arrays": table,
        }
        with _STORE_IO_SECONDS.timer(op="save"), obs.span(
            "store.save", num_sets=self.num_sets
        ):
            blockfile.write_block_file(path, MAGIC, header, arrays)

    @classmethod
    def load(cls, path: PathLike, mmap: bool = True) -> "SketchStore":
        """Read a store; with ``mmap`` the arrays are read-only memmaps.

        Raises :class:`SketchStoreError` on any malformed input — wrong
        magic, unsupported version, truncated header or data section, or
        violated CSR invariants — never silently returns partial data.
        """
        path = Path(path)
        header, data_start, file_size = blockfile.read_header(
            path, MAGIC, SketchStoreError, "sketch store"
        )
        version = header.get("format_version")
        if version not in SUPPORTED_VERSIONS:
            raise SketchStoreError(
                f"{path}: format version {version!r} unsupported "
                f"(this build reads versions {SUPPORTED_VERSIONS})"
            )
        meta = header.get("meta")
        table = header.get("arrays")
        if not isinstance(meta, dict) or not isinstance(table, dict):
            raise SketchStoreError(f"{path}: corrupted header")
        missing = [name for name in ARRAY_NAMES if name not in table]
        if missing:
            raise SketchStoreError(f"{path}: missing arrays {missing}")
        model = str(meta.get("model", "prima"))
        if model not in MODELS:
            raise SketchStoreError(
                f"{path}: unknown sketch model {model!r} "
                f"(supported: {MODELS})"
            )
        wanted = list(ARRAY_NAMES)
        if "worlds" in table:
            wanted.append("worlds")
        elif model == "comic":
            raise SketchStoreError(
                f"{path}: comic store is missing its worlds bitmap"
            )

        with _STORE_IO_SECONDS.timer(op="load"), obs.span(
            "store.load", mmap=bool(mmap)
        ):
            arrays, mapped_bytes = blockfile.read_arrays(
                path, table, wanted, data_start, file_size,
                SketchStoreError, mmap=mmap,
            )
        _STORE_MMAP_BYTES.inc(
            mapped_bytes, mode="mmap" if mmap else "ram"
        )

        store = cls(
            fingerprint=str(meta.get("fingerprint", "")),
            num_nodes=int(meta.get("num_nodes", 0)),
            num_edges=int(meta.get("num_edges", 0)),
            max_budget=int(meta.get("max_budget", 0)),
            epsilon=float(meta.get("epsilon", 0.0)),
            ell=float(meta.get("ell", 0.0)),
            backend=str(meta.get("backend", "batched")),
            triggering=meta.get("triggering"),
            world_cursor=int(meta.get("world_cursor", 0)),
            rng_state=meta.get("rng_state"),
            model=model,
            comic=meta.get("comic"),
            **arrays,
        )
        store._validate(path)
        if store.num_sets != int(meta.get("num_sets", store.num_sets)):
            raise SketchStoreError(
                f"{path}: header num_sets disagrees with offsets array"
            )
        return store

    def _validate(self, path: PathLike) -> None:
        """Integrity checks: CSR invariants plus value-range scans.

        The range scans (min/max over members, idx_sets, seed_order) are
        O(total width) and page the data section in once at load time —
        the price of the "never silently serve garbage" contract: a
        bit-flipped member or index entry would otherwise wrap into a
        wrong-but-plausible coverage answer instead of an error.
        """
        n = self.num_nodes
        offsets = self.offsets
        if offsets.shape[0] < 1 or offsets[0] != 0:
            raise SketchStoreError(f"{path}: offsets must start at 0")
        if np.any(np.diff(offsets) < 0):
            raise SketchStoreError(f"{path}: offsets not monotone")
        if int(offsets[-1]) != self.members.shape[0]:
            raise SketchStoreError(
                f"{path}: members length {self.members.shape[0]} != "
                f"offsets[-1] == {int(offsets[-1])}"
            )
        if self.widths.shape[0] != self.num_sets:
            raise SketchStoreError(f"{path}: widths/offsets length mismatch")
        if self.idx_indptr.shape[0] != n + 1:
            raise SketchStoreError(f"{path}: inverted index not over n nodes")
        if int(self.idx_indptr[0]) != 0 or np.any(np.diff(self.idx_indptr) < 0):
            raise SketchStoreError(f"{path}: inverted indptr not monotone")
        if int(self.idx_indptr[-1]) != self.idx_sets.shape[0]:
            raise SketchStoreError(f"{path}: inverted index truncated")
        if self.idx_sets.shape[0] != self.members.shape[0]:
            raise SketchStoreError(
                f"{path}: inverted index disagrees with member log"
            )
        if self.cover_counts.shape[0] != n:
            raise SketchStoreError(f"{path}: cover_counts not over n nodes")
        for name, arr, bound in (
            ("members", self.members, n),
            ("idx_sets", self.idx_sets, self.num_sets),
            ("seed_order", self.seed_order, n),
        ):
            if arr.shape[0] and (
                int(arr.min()) < 0 or int(arr.max()) >= bound
            ):
                raise SketchStoreError(
                    f"{path}: {name} contains ids outside [0, {bound})"
                )
        if self.worlds is not None:
            if self.worlds.ndim != 2 or self.worlds.shape[1] != n:
                raise SketchStoreError(
                    f"{path}: worlds bitmap must be (num_worlds, {n}), "
                    f"got {self.worlds.shape}"
                )
        if self.model == "comic":
            required = ("q_plain", "q_boosted", "select_item")
            if not isinstance(self.comic, dict) or any(
                key not in self.comic for key in required
            ):
                raise SketchStoreError(
                    f"{path}: comic store header lacks the GAP metadata "
                    f"{required}"
                )

    # ------------------------------------------------------------------
    # Construction from live objects
    # ------------------------------------------------------------------
    @classmethod
    def from_collection(
        cls,
        graph: InfluenceGraph,
        collection,
        seed_order,
        max_budget: int,
        epsilon: float,
        ell: float,
        triggering: Optional[str] = None,
        world_cursor: int = 0,
        model: str = "prima",
        comic: Optional[dict] = None,
        worlds: Optional[np.ndarray] = None,
    ) -> "SketchStore":
        """Snapshot a live :class:`~repro.rrset.rrgen.RRCollection`.

        ``collection`` supplies the CSR arrays, inverted index and RNG
        state (via ``export_state``); widths are recomputed in one
        vectorized pass.  ``seed_order`` is the prefix-preserving ordering
        the oracle serves.
        """
        from repro.rrset.batch import rr_set_widths

        state = collection.export_state()
        members = state["members"]
        offsets = state["offsets"]
        widths = rr_set_widths(graph, members, np.diff(offsets))
        return cls(
            fingerprint=graph_fingerprint(graph),
            num_nodes=graph.num_nodes,
            num_edges=graph.num_edges,
            max_budget=int(max_budget),
            epsilon=float(epsilon),
            ell=float(ell),
            backend=collection.backend,
            triggering=triggering,
            world_cursor=int(world_cursor),
            rng_state=state["rng_state"],
            seed_order=np.asarray(seed_order, dtype=INDEX_DTYPE),
            members=members,
            offsets=offsets,
            widths=widths,
            idx_sets=state["idx_sets"],
            idx_indptr=state["idx_indptr"],
            cover_counts=state["cover_counts"],
            model=model,
            comic=comic,
            worlds=worlds,
        )

    def restore_rng(self) -> np.random.Generator:
        """Reconstruct the sampling generator from the persisted state."""
        if self.rng_state is None:
            raise SketchStoreError(
                "store carries no RNG state (merged or legacy store); "
                "extension would break the reproducibility contract"
            )
        state = _restore_rng_state(self.rng_state)
        bit_generator = getattr(np.random, state["bit_generator"])()
        bit_generator.state = state
        return np.random.Generator(bit_generator)

    def __repr__(self) -> str:
        return (
            f"SketchStore(n={self.num_nodes}, num_sets={self.num_sets}, "
            f"max_budget={self.max_budget}, backend={self.backend!r}, "
            f"fingerprint={self.fingerprint[:12]}…)"
        )
