"""Web-scale graphs: streaming edge-list ingestion and mmap'd CSR files.

:func:`repro.graph.io.read_edge_list` parses one Python tuple per line —
fine at 20k nodes, hopeless at the paper's web-scale datasets (Orkut:
117M edges).  This module is the production ingestion path:

* :func:`ingest_edge_list` streams a SNAP-style edge list (``u v`` or
  ``u v p`` lines, ``#``/``%`` comments, duplicates, self-loops,
  out-of-order ids) through fixed-size byte chunks and **two passes** —
  degree counting, then direct placement into preallocated CSR arrays —
  so peak memory is bounded by the *output* CSR, never by Python object
  overhead.  The result is written as a versioned ``.graph`` file.
* :func:`write_graph_file` persists an in-memory
  :class:`~repro.graph.digraph.InfluenceGraph` in the same format.
* :func:`load_graph` memory-maps a ``.graph`` file back into an
  :class:`InfluenceGraph` in O(1), and marks the graph so the worker
  pool (:mod:`repro.parallel.shm`) can attach the backing file directly
  instead of copying CSR arrays into a shared-memory segment.

The ``.graph`` container reuses the sketch-store machinery
(:mod:`repro.store.blockfile`): 8-byte magic, uint64 header length, JSON
header, 64-byte-aligned array blocks, atomic replace on write.  Index
arrays are stored wide (int64) and probabilities as float64 **by
contract**: :func:`~repro.graph.io.graph_fingerprint` hashes raw array
bytes, so a ``.graph`` file loads to *byte-identical* CSR arrays — and
therefore the identical fingerprint — as constructing the same graph in
memory.  Node ids are the file's own ids over a dense ``0 .. max_id``
space (no first-seen compaction; SNAP files are near-dense already), so
the same file always produces the same graph.

Cleaning semantics match the in-memory path exactly: self-loops dropped,
duplicate edges collapsed keeping the maximum probability, and — for
unweighted files under the weighted-cascade scheme — ``p(u, v) =
1 / in_degree(v)`` with the in-degree counted over the raw non-self-loop
arcs *including duplicates*, mirroring
:func:`repro.graph.weighting.weighted_cascade`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.graph.digraph import InfluenceGraph
from repro.graph.io import graph_fingerprint
from repro.store.blockfile import (
    array_table,
    read_arrays,
    read_header,
    write_block_file,
)
from repro.store.format import (
    GRAPH_ARRAY_NAMES,
    GRAPH_FORMAT_VERSION,
    GRAPH_MAGIC,
    GRAPH_SUPPORTED_VERSIONS,
    INDEX_DTYPE,
    PROB_DTYPE,
)

PathLike = Union[str, Path]

__all__ = [
    "GraphFileError",
    "GraphIngestError",
    "IngestStats",
    "graph_file_fingerprint",
    "ingest_edge_list",
    "is_graph_file",
    "load_graph",
    "read_graph_header",
    "write_graph_file",
]

#: Default streaming chunk size (bytes) for the ingestion passes.
DEFAULT_CHUNK_BYTES = 16 * 1024 * 1024

#: ``.graph`` maps the six CSR array names to InfluenceGraph attributes.
_CSR_ATTRS = {
    "out_indptr": "_out_indptr",
    "out_targets": "_out_targets",
    "out_probs": "_out_probs",
    "in_indptr": "_in_indptr",
    "in_sources": "_in_sources",
    "in_probs": "_in_probs",
}

_INGEST_SECONDS = obs.histogram(
    "repro_graph_ingest_seconds",
    "Wall-clock of streaming edge-list ingestion passes",
    labels=("phase",),
)
_INGEST_RECORDS = obs.counter(
    "repro_graph_ingest_records_total",
    "Edge records parsed by the streaming ingester",
)
_GRAPH_FILE_BYTES = obs.counter(
    "repro_graph_file_bytes_total",
    "Bytes written to / memory-mapped from .graph CSR files",
    labels=("op",),
)


class GraphIngestError(ValueError):
    """An edge-list file is malformed (bad ids, probabilities, records)."""


class GraphFileError(RuntimeError):
    """A ``.graph`` file is malformed, truncated, or unsupported."""


@dataclass(frozen=True)
class IngestStats:
    """What one streaming ingestion saw and produced."""

    num_nodes: int
    num_edges: int
    records: int
    comments: int
    self_loops: int
    duplicates: int
    weighted: bool
    scheme: Optional[str]
    source: str


def is_graph_file(path: PathLike) -> bool:
    """Whether ``path`` names a ``.graph`` CSR file (by suffix)."""
    return Path(path).suffix == ".graph"


# ----------------------------------------------------------------------
# Streaming parse
# ----------------------------------------------------------------------
def _iter_chunks(path: Path, chunk_bytes: int):
    """Yield byte chunks split on line boundaries (last line may lack \\n)."""
    carry = b""
    with open(path, "rb") as f:
        while True:
            block = f.read(chunk_bytes)
            if not block:
                break
            block = carry + block
            cut = block.rfind(b"\n")
            if cut < 0:
                carry = block
                continue
            carry = block[cut + 1 :]
            yield block[: cut + 1]
    if carry:
        yield carry


def _data_lines(chunk: bytes) -> Tuple[List[bytes], int]:
    """Non-blank, non-comment lines of a chunk, plus the comment count."""
    lines = []
    comments = 0
    for line in chunk.split(b"\n"):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped[:1] in (b"#", b"%"):
            comments += 1
            continue
        lines.append(stripped)
    return lines, comments


def _parse_chunk(
    chunk: bytes, weighted: Optional[bool], path: Path
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray], Optional[bool], int]:
    """Vectorized parse of one chunk into ``(ids, probs, weighted, comments)``.

    ``ids`` is an ``(k, 2)`` int64 array of ``(u, v)`` pairs; ``probs``
    is ``None`` for unweighted files.  ``weighted`` is auto-detected
    from the first data line when the caller passes ``None``.  Raises
    :class:`GraphIngestError` on non-numeric tokens, fractional or
    negative ids, probabilities outside ``[0, 1]``, and records with the
    wrong number of fields — including a file truncated mid-record,
    which shows up as a token count that does not divide evenly.
    """
    lines, comments = _data_lines(chunk)
    if not lines:
        return None, None, weighted, comments
    if weighted is None:
        weighted = len(lines[0].split()) >= 3
    cols = 3 if weighted else 2
    tokens = b" ".join(lines).split()
    if len(tokens) != cols * len(lines):
        for line in lines:
            width = len(line.split())
            if width != cols:
                raise GraphIngestError(
                    f"{path}: expected {cols} fields per record "
                    f"({'u v p' if weighted else 'u v'}), got {width} "
                    f"in line {line.decode(errors='replace')!r} — "
                    "truncated or malformed edge list"
                )
        raise GraphIngestError(  # pragma: no cover - defensive
            f"{path}: token count {len(tokens)} does not divide into "
            f"{cols}-field records"
        )
    token_arr = np.array(tokens)
    shaped = token_arr.reshape(len(lines), cols)
    try:
        ids = shaped[:, :2].astype(INDEX_DTYPE)
    except ValueError as exc:
        raise GraphIngestError(
            f"{path}: non-integer node id in edge list ({exc})"
        ) from exc
    if ids.size and int(ids.min()) < 0:
        raise GraphIngestError(f"{path}: negative node id in edge list")
    probs = None
    if weighted:
        try:
            probs = shaped[:, 2].astype(PROB_DTYPE)
        except ValueError as exc:
            raise GraphIngestError(
                f"{path}: non-numeric edge probability ({exc})"
            ) from exc
        if probs.size and (
            not np.isfinite(probs).all()
            or float(probs.min()) < 0.0
            or float(probs.max()) > 1.0
        ):
            raise GraphIngestError(
                f"{path}: edge probability outside [0, 1]"
            )
    return ids, probs, weighted, comments


def _grow_counts(counts: np.ndarray, size: int) -> np.ndarray:
    if size <= counts.shape[0]:
        return counts
    grown = np.zeros(max(size, counts.shape[0] * 2), dtype=INDEX_DTYPE)
    grown[: counts.shape[0]] = counts
    return grown


# ----------------------------------------------------------------------
# Ingestion (two passes)
# ----------------------------------------------------------------------
def ingest_edge_list(
    src: PathLike,
    out: PathLike,
    *,
    weighted: Optional[bool] = None,
    scheme: str = "wc",
    num_nodes: Optional[int] = None,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> IngestStats:
    """Stream ``src`` (a SNAP-style edge list) into the ``.graph`` ``out``.

    Two chunked passes over the file: the first counts degrees (and
    detects the weighted/unweighted layout), the second places every
    non-self-loop record directly into its source row of a preallocated
    CSR — a counting sort, so peak memory is a small constant times the
    final CSR size regardless of how the input is ordered.  Duplicate
    edges collapse keeping the maximum probability; for unweighted
    input, probabilities come from the weighted-cascade scheme
    (``scheme="wc"``, the only one supported at ingest time, matching
    :func:`~repro.graph.io.read_edge_list`).

    ``num_nodes`` overrides the node count (must cover every id); by
    default ``n = max_id + 1``.  Returns :class:`IngestStats`; raises
    :class:`GraphIngestError` on malformed input without writing ``out``.
    """
    src = Path(src)
    out = Path(out)
    if chunk_bytes < 1:
        raise ValueError(f"chunk_bytes must be positive, got {chunk_bytes}")
    if scheme != "wc":
        raise GraphIngestError(
            "unweighted edge lists only support the 'wc' scheme at "
            f"ingest time, got {scheme!r}"
        )

    # Pass 1 — degree counting.  out_counts/in_counts cover the raw
    # non-self-loop arcs (duplicates included: the WC in-degree contract).
    records = comments = self_loops = 0
    max_id = -1
    out_counts = np.zeros(1024, dtype=INDEX_DTYPE)
    in_counts = np.zeros(1024, dtype=INDEX_DTYPE)
    with _INGEST_SECONDS.timer(phase="degrees"), obs.span(
        "graph.ingest.degrees", src=str(src)
    ):
        for chunk in _iter_chunks(src, chunk_bytes):
            ids, _, weighted, seen = _parse_chunk(chunk, weighted, src)
            comments += seen
            if ids is None:
                continue
            records += ids.shape[0]
            u, v = ids[:, 0], ids[:, 1]
            loops = u == v
            self_loops += int(loops.sum())
            if loops.any():
                u, v = u[~loops], v[~loops]
            if u.shape[0] == 0:
                if ids.size:
                    max_id = max(max_id, int(ids.max()))
                continue
            max_id = max(max_id, int(ids.max()))
            top = int(max(u.max(), v.max())) + 1
            out_counts = _grow_counts(out_counts, top)
            in_counts = _grow_counts(in_counts, top)
            out_counts[: top] += np.bincount(
                u, minlength=top
            )[: top]
            in_counts[: top] += np.bincount(
                v, minlength=top
            )[: top]
    _INGEST_RECORDS.inc(records)

    n = max_id + 1
    if num_nodes is not None:
        if num_nodes < n:
            raise GraphIngestError(
                f"{src}: num_nodes={num_nodes} but the file references "
                f"node id {max_id}"
            )
        n = int(num_nodes)
    out_counts = out_counts[:n] if n else out_counts[:0]
    in_counts = in_counts[:n] if n else in_counts[:0]
    m_raw = int(out_counts.sum())

    # Pass 2 — counting-sort placement into source-grouped arrays.
    raw_indptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
    np.cumsum(out_counts, out=raw_indptr[1:])
    cursors = raw_indptr[:-1].copy()
    tgt_store = np.empty(m_raw, dtype=INDEX_DTYPE)
    prob_store = np.empty(m_raw, dtype=PROB_DTYPE) if weighted else None
    with _INGEST_SECONDS.timer(phase="placement"), obs.span(
        "graph.ingest.placement", src=str(src), records=records
    ):
        for chunk in _iter_chunks(src, chunk_bytes):
            ids, probs, weighted, _ = _parse_chunk(chunk, weighted, src)
            if ids is None:
                continue
            u, v = ids[:, 0], ids[:, 1]
            keep = u != v
            if not keep.all():
                u, v = u[keep], v[keep]
                if probs is not None:
                    probs = probs[keep]
            if u.shape[0] == 0:
                continue
            order = np.argsort(u, kind="stable")
            su, sv = u[order], v[order]
            # Rank of each record within its (contiguous) source group.
            starts = np.flatnonzero(np.diff(su)) + 1
            group_first = np.zeros(su.shape[0], dtype=INDEX_DTYPE)
            group_first[starts] = starts
            np.maximum.accumulate(group_first, out=group_first)
            rank = np.arange(su.shape[0], dtype=INDEX_DTYPE) - group_first
            pos = cursors[su] + rank
            tgt_store[pos] = sv
            if probs is not None:
                prob_store[pos] = probs[order]
            chunk_counts = np.bincount(su, minlength=n)[:n]
            cursors += chunk_counts

    with _INGEST_SECONDS.timer(phase="finalize"), obs.span(
        "graph.ingest.finalize", src=str(src), raw_edges=m_raw
    ):
        graph, duplicates = _build_graph(
            n, raw_indptr, tgt_store, prob_store, in_counts
        )
        stats = IngestStats(
            num_nodes=n,
            num_edges=graph.num_edges,
            records=records,
            comments=comments,
            self_loops=self_loops,
            duplicates=duplicates,
            weighted=bool(weighted),
            scheme=None if weighted else scheme,
            source=src.name,
        )
        write_graph_file(graph, out, stats=stats)
    return stats


def _build_graph(
    n: int,
    raw_indptr: np.ndarray,
    tgt_store: np.ndarray,
    prob_store: Optional[np.ndarray],
    in_counts: np.ndarray,
) -> Tuple[InfluenceGraph, int]:
    """Sort, dedup (keep max prob) and assemble both CSR orientations.

    Produces arrays byte-identical to ``InfluenceGraph.__init__`` on the
    same cleaned edge set: same (row, col) lexsort order, same int64 /
    float64 dtypes, same dedup-keeps-max semantics.
    """
    m_raw = tgt_store.shape[0]
    row_ids = np.repeat(
        np.arange(n, dtype=INDEX_DTYPE), np.diff(raw_indptr)
    )
    order = np.lexsort((tgt_store, row_ids))
    src_sorted = row_ids[order]
    tgt_sorted = tgt_store[order]
    if m_raw:
        first = np.empty(m_raw, dtype=np.bool_)
        first[0] = True
        np.logical_or(
            src_sorted[1:] != src_sorted[:-1],
            tgt_sorted[1:] != tgt_sorted[:-1],
            out=first[1:],
        )
        starts = np.flatnonzero(first)
    else:
        starts = np.empty(0, dtype=INDEX_DTYPE)
    out_src = src_sorted[starts]
    out_targets = np.ascontiguousarray(tgt_sorted[starts])
    if prob_store is not None:
        probs_sorted = prob_store[order]
        out_probs = (
            np.maximum.reduceat(probs_sorted, starts)
            if starts.size
            else np.empty(0, dtype=PROB_DTYPE)
        )
    else:
        # Weighted cascade over the raw in-degrees (duplicates counted,
        # self-loops excluded) — repro.graph.weighting semantics.
        out_probs = 1.0 / in_counts[out_targets].astype(PROB_DTYPE)
    out_probs = np.ascontiguousarray(out_probs)
    duplicates = int(m_raw - starts.size)

    out_indptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
    np.cumsum(np.bincount(out_src, minlength=n)[:n], out=out_indptr[1:])

    in_order = np.lexsort((out_src, out_targets))
    in_sources = np.ascontiguousarray(out_src[in_order])
    in_probs = np.ascontiguousarray(out_probs[in_order])
    in_indptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
    np.cumsum(
        np.bincount(out_targets, minlength=n)[:n], out=in_indptr[1:]
    )

    graph = InfluenceGraph.from_csr(
        n,
        out_indptr,
        out_targets,
        out_probs,
        in_indptr,
        in_sources,
        in_probs,
    )
    return graph, duplicates


# ----------------------------------------------------------------------
# The .graph container
# ----------------------------------------------------------------------
def write_graph_file(
    graph: InfluenceGraph,
    path: PathLike,
    *,
    stats: Optional[IngestStats] = None,
) -> None:
    """Persist a graph's CSR arrays as a versioned, mmap-ready file.

    Arrays are written wide (int64 indices, float64 probabilities) so a
    load reproduces the in-memory construction byte-for-byte — the
    fingerprint embedded in the header is the one
    :func:`~repro.graph.io.graph_fingerprint` computes on the loaded
    graph, and on the stores built from it.
    """
    arrays: Dict[str, np.ndarray] = {}
    for name, attr in _CSR_ATTRS.items():
        arr = np.asarray(getattr(graph, attr))
        dtype = PROB_DTYPE if name.endswith("probs") else INDEX_DTYPE
        arrays[name] = np.ascontiguousarray(np.asarray(arr, dtype=dtype))
    meta = {
        "num_nodes": int(graph.num_nodes),
        "num_edges": int(graph.num_edges),
        "fingerprint": graph_fingerprint(graph),
    }
    if stats is not None:
        meta["ingest"] = asdict(stats)
    header = {
        "format_version": GRAPH_FORMAT_VERSION,
        "meta": meta,
        "arrays": array_table(arrays),
    }
    with obs.span(
        "graph.write", nodes=graph.num_nodes, edges=graph.num_edges
    ):
        write_block_file(path, GRAPH_MAGIC, header, arrays)
    _GRAPH_FILE_BYTES.inc(
        sum(arr.nbytes for arr in arrays.values()), op="write"
    )


def read_graph_header(path: PathLike) -> dict:
    """The validated JSON header of a ``.graph`` file (no array I/O)."""
    path = Path(path)
    header, _, _ = read_header(path, GRAPH_MAGIC, GraphFileError, "graph file")
    return _validated_header(path, header)


def graph_file_fingerprint(path: PathLike) -> str:
    """The fingerprint recorded in a ``.graph`` header (O(1), no mmap)."""
    return str(read_graph_header(path)["meta"].get("fingerprint", ""))


def load_graph(
    path: PathLike, *, mmap: bool = True, verify: bool = False
) -> InfluenceGraph:
    """Load a ``.graph`` file; with ``mmap`` the arrays are file-backed.

    O(1) in the graph size when memory-mapped (plus cheap CSR invariant
    checks on the indptr arrays).  The returned graph carries a
    publication spec so :func:`repro.parallel.shm.publish_graph` can
    hand workers the backing file instead of copying six CSR arrays
    into a shared-memory segment.  With ``verify=True`` the full
    fingerprint is recomputed from the arrays (O(m), pages the file in)
    and checked against the header.  Raises :class:`GraphFileError` on
    any malformed or inconsistent file.
    """
    path = Path(path)
    header, data_start, file_size = read_header(
        path, GRAPH_MAGIC, GraphFileError, "graph file"
    )
    header = _validated_header(path, header)
    meta = header["meta"]
    table = header["arrays"]
    n = int(meta.get("num_nodes", 0))
    with obs.span("graph.load", mmap=bool(mmap)):
        arrays, mapped = read_arrays(
            path,
            table,
            GRAPH_ARRAY_NAMES,
            data_start,
            file_size,
            GraphFileError,
            mmap=mmap,
        )
    _GRAPH_FILE_BYTES.inc(mapped, op="mmap" if mmap else "read")
    _check_csr(path, n, arrays)
    # Plain ndarray views of the maps: fancy indexing on an ``np.memmap``
    # subclass pays ``memmap.__getitem__`` on every call of the samplers.
    graph = InfluenceGraph.from_csr(
        n, *(arrays[name].view(np.ndarray) for name in GRAPH_ARRAY_NAMES)
    )
    if verify:
        actual = graph_fingerprint(graph)
        recorded = str(meta.get("fingerprint", ""))
        if actual != recorded:
            raise GraphFileError(
                f"{path}: graph file fingerprint mismatch — header says "
                f"{recorded[:16]}… but the arrays hash to {actual[:16]}… "
                "(corrupted or hand-edited file)"
            )
    if mmap:
        graph._mmap_spec = {
            "kind": "file",
            "name": f"graph-file:{path.resolve()}:{file_size}",
            "path": str(path.resolve()),
            "num_nodes": n,
            "graph": [
                (
                    data_start + int(table[name]["offset"]),
                    str(table[name]["dtype"]),
                    tuple(int(s) for s in table[name]["shape"]),
                )
                for name in GRAPH_ARRAY_NAMES
            ],
            "trigger": None,
        }
    return graph


def _validated_header(path: Path, header: dict) -> dict:
    version = header.get("format_version")
    if version not in GRAPH_SUPPORTED_VERSIONS:
        raise GraphFileError(
            f"{path}: graph format version {version!r} unsupported "
            f"(this build reads versions {GRAPH_SUPPORTED_VERSIONS})"
        )
    meta = header.get("meta")
    table = header.get("arrays")
    if not isinstance(meta, dict) or not isinstance(table, dict):
        raise GraphFileError(f"{path}: corrupted header")
    missing = [name for name in GRAPH_ARRAY_NAMES if name not in table]
    if missing:
        raise GraphFileError(f"{path}: missing arrays {missing}")
    return header


def _check_csr(path: Path, n: int, arrays: Dict[str, np.ndarray]) -> None:
    """Cheap structural invariants (indptr shape/monotonicity, bounds)."""
    for side, indices in (("out", "out_targets"), ("in", "in_sources")):
        indptr = arrays[f"{side}_indptr"]
        ids = arrays[indices]
        probs = arrays[f"{side}_probs"]
        if indptr.shape[0] != n + 1 or int(indptr[0]) != 0:
            raise GraphFileError(
                f"{path}: {side}_indptr is not a length-{n + 1} CSR indptr"
            )
        if np.any(np.diff(indptr) < 0):
            raise GraphFileError(f"{path}: {side}_indptr not monotone")
        if int(indptr[-1]) != ids.shape[0] or ids.shape != probs.shape:
            raise GraphFileError(
                f"{path}: {side} CSR arrays disagree on edge count"
            )
        if ids.shape[0] and (
            int(ids.min()) < 0 or int(ids.max()) >= n
        ):
            raise GraphFileError(
                f"{path}: {indices} contains ids outside [0, {n})"
            )
    if arrays["out_targets"].shape[0] != arrays["in_sources"].shape[0]:
        raise GraphFileError(
            f"{path}: forward and reverse CSR edge counts disagree"
        )
