"""Zero-copy graph publication over POSIX shared memory.

The sharded store builder and the sharded forward estimators fan work over
a process pool.  Pickling an :class:`~repro.graph.digraph.InfluenceGraph`
into every worker — what the first sharded builder did via pool
``initargs`` — costs a full serialize/deserialize of all six CSR arrays
per worker spawn and a private copy per worker.  This module removes both
costs: :func:`publish_graph` copies the CSR arrays (and, when the run
samples under a generic triggering model, the compiled
:class:`~repro.diffusion.triggering.TriggerCSR`) into **one**
``multiprocessing.shared_memory`` segment, and :func:`attach_graph`
reconstructs read-only numpy views over that segment in O(1), whatever
the graph size.  Workers attach once and cache the attachment; every
shard task after the first touches the parent's physical pages directly.

The wire format is a small picklable *spec* dict — segment name plus
``(offset, dtype, shape)`` per array — which is all a task submission has
to carry.  Segment lifetime is owned by the publishing side (the
:class:`~repro.parallel.pool.WorkerPool`): workers ``close()`` but never
``unlink()``.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import List, Optional, Tuple

import numpy as np

from repro.diffusion.triggering import TriggerCSR
from repro.graph.digraph import InfluenceGraph

__all__ = [
    "SEGMENT_PREFIX",
    "attach_graph",
    "publish_graph",
]

#: Every segment this layer creates carries this name prefix, so tests (and
#: operators) can audit ``/dev/shm`` for leaks with one glob.
SEGMENT_PREFIX = "repro-shm"

#: The six CSR arrays of an InfluenceGraph, in wire order.
_GRAPH_FIELDS = (
    "_out_indptr",
    "_out_targets",
    "_out_probs",
    "_in_indptr",
    "_in_sources",
    "_in_probs",
)

#: The four flat arrays of a compiled TriggerCSR, in wire order.
_TRIGGER_FIELDS = (
    "cand_indptr",
    "shifted_cum",
    "member_indptr",
    "member_sources",
)

#: Array alignment inside the segment (cache-line friendly, dtype-safe).
_ALIGN = 64

_COUNTER = [0]


def _next_name() -> str:
    """A collision-resistant, auditable segment name."""
    import os

    _COUNTER[0] += 1
    return f"{SEGMENT_PREFIX}-{os.getpid()}-{_COUNTER[0]}"


def _layout(
    arrays: List[np.ndarray],
) -> Tuple[int, List[Tuple[int, str, Tuple[int, ...]]]]:
    """Assign aligned offsets; returns ``(total_bytes, entries)``."""
    offset = 0
    entries: List[Tuple[int, str, Tuple[int, ...]]] = []
    for array in arrays:
        offset = -(-offset // _ALIGN) * _ALIGN
        entries.append((offset, array.dtype.str, array.shape))
        offset += array.nbytes
    # SharedMemory refuses zero-size segments (an edgeless graph's member
    # arrays are empty but the indptr arrays never are, so this is belt
    # and braces).
    return max(offset, 1), entries


def publish_graph(
    graph: InfluenceGraph,
    trigger_csr: Optional[TriggerCSR] = None,
) -> Tuple[Optional[shared_memory.SharedMemory], dict]:
    """Copy a graph's CSR arrays into one fresh shared-memory segment.

    Returns ``(shm, spec)``: the live segment (the caller owns its
    lifetime — ``close()`` + ``unlink()`` when done) and the picklable
    spec :func:`attach_graph` consumes.  ``trigger_csr`` optionally rides
    along in the same segment for runs sampling under a generic
    triggering model.

    Graphs loaded from a ``.graph`` file (:mod:`repro.graph.bigcsr`)
    short-circuit: their CSR arrays are already backed by a file every
    worker can map, so no segment is created at all — the returned
    handle is ``None`` and the spec points workers at the backing file
    (``kind: "file"``).  A ``trigger_csr`` forces the copying path, as
    the compiled trigger arrays live only in this process.
    """
    file_spec = getattr(graph, "_mmap_spec", None)
    if file_spec is not None and trigger_csr is None:
        return None, dict(file_spec)
    graph_arrays = [
        np.ascontiguousarray(getattr(graph, field))
        for field in _GRAPH_FIELDS
    ]
    trigger_arrays = (
        [
            np.ascontiguousarray(getattr(trigger_csr, field))
            for field in _TRIGGER_FIELDS
        ]
        if trigger_csr is not None
        else []
    )
    arrays = graph_arrays + trigger_arrays
    size, entries = _layout(arrays)
    shm = shared_memory.SharedMemory(
        name=_next_name(), create=True, size=size
    )
    for array, (offset, dtype, shape) in zip(arrays, entries):
        view = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=offset)
        view[...] = array
    del view, array  # noqa: F821 - drop buffer exports before returning
    spec = {
        "name": shm.name,
        "num_nodes": int(graph.num_nodes),
        "graph": entries[: len(_GRAPH_FIELDS)],
        "trigger": entries[len(_GRAPH_FIELDS) :] or None,
    }
    return shm, spec


def _views(
    shm: shared_memory.SharedMemory,
    entries: List[Tuple[int, str, Tuple[int, ...]]],
) -> List[np.ndarray]:
    views = []
    for offset, dtype, shape in entries:
        view = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=offset)
        view.flags.writeable = False  # one writer (nobody), many readers
        views.append(view)
    return views


def attach_graph(
    spec: dict,
) -> Tuple[
    InfluenceGraph, Optional[TriggerCSR], Optional[shared_memory.SharedMemory]
]:
    """Reconstruct a published graph as views over the shared segment.

    O(1) in the graph size: no arrays are copied or validated — the views
    alias the publisher's physical pages.  Returns the graph, the
    published :class:`TriggerCSR` (or ``None``), and the attached segment
    handle, which the caller must keep referenced while the graph is in
    use (the views borrow its buffer) and ``close()`` — never
    ``unlink()`` — when done.

    For a file-backed spec (``kind: "file"``, published from a
    ``.graph``-loaded graph) the arrays are memory-mapped straight from
    the backing file and the segment handle is ``None`` — the OS page
    cache already shares the physical pages across every worker.
    """
    if spec.get("kind") == "file":
        arrays = [
            np.memmap(
                spec["path"],
                dtype=np.dtype(dtype),
                mode="r",
                offset=offset,
                shape=tuple(shape),
            ).view(np.ndarray)
            for offset, dtype, shape in spec["graph"]
        ]
        return (
            InfluenceGraph.from_csr(spec["num_nodes"], *arrays),
            None,
            None,
        )
    try:
        # 3.13+: opt out of the per-process resource tracker — segment
        # lifetime is owned by the publisher, not the attaching worker.
        shm = shared_memory.SharedMemory(name=spec["name"], track=False)
    except TypeError:
        shm = shared_memory.SharedMemory(name=spec["name"])
        _untrack(shm.name)
    graph = InfluenceGraph.from_csr(
        spec["num_nodes"], *_views(shm, spec["graph"])
    )
    trigger = (
        TriggerCSR(*_views(shm, spec["trigger"]))
        if spec["trigger"] is not None
        else None
    )
    return graph, trigger, shm


def _untrack(name: str) -> None:
    """Pre-3.13 workaround: unregister an attached segment.

    Without this, a *spawned* worker's own ``resource_tracker`` believes
    it owns the segment and tries to unlink it (again) at exit, spewing
    "leaked shared_memory" warnings for segments the publisher already
    cleaned up.  Forked workers share the publisher's tracker (set
    semantics — the attach-side register is a no-op), so unregistering
    there would strip the *publisher's* registration; skip it.
    """
    try:
        import multiprocessing
        from multiprocessing import resource_tracker

        if multiprocessing.get_start_method(allow_none=True) == "fork":
            return
        resource_tracker.unregister(f"/{name}", "shared_memory")
    except Exception:
        pass
