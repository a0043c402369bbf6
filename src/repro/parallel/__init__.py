"""Shared-memory parallel execution layer (the ``parallel`` backend).

Three pieces (DESIGN.md §6):

* :mod:`repro.parallel.shm` — publish a graph's CSR arrays (plus a
  compiled ``TriggerCSR`` when present) into one
  ``multiprocessing.shared_memory`` segment; workers attach zero-copy.
  Graphs loaded from a mmap'd ``.graph`` file
  (:mod:`repro.graph.bigcsr`) skip the segment entirely — workers map
  the backing file, sharing pages through the OS cache.
* :mod:`repro.parallel.pool` — the persistent, lazily-started
  :class:`WorkerPool` (one per process via :func:`get_pool`), reused
  across calls, with crash recovery and guaranteed segment cleanup.
* :mod:`repro.parallel.tasks` — the shard task functions; identical
  in-process and pooled results, so shard structure alone (never worker
  count) determines every number.

``parallel`` is a first-class :class:`~repro.engine.EngineContext`
backend next to ``sequential``/``batched``: in-process sampling layers
treat it exactly like ``batched`` (same vectorized kernels), while the
sharded store builder and the forward Monte-Carlo estimators additionally
fan their shards over the pool.  Forward estimators shard their worlds
deterministically with :func:`forward_shard_counts` and seed each shard
from a ``SeedSequence`` child, so an estimate depends only on
``(seed, num_samples)`` — never on how many workers happened to serve it.
The pool may *regroup* consecutive micro-shards into fewer dispatches
using wall-clock feedback (``$REPRO_SHARD_TARGET_MS``); each micro-shard
keeps its own seed and arguments, so this is invisible in the results.
"""

from __future__ import annotations

import warnings
from typing import List, Optional

import numpy as np

from repro import obs
from repro.parallel.pool import (
    PROCESSES_ENV,
    SHARD_TARGET_ENV,
    WorkerPool,
    default_processes,
    get_pool,
    pool_stats,
    shard_target_seconds,
    shutdown_pool,
)
from repro.parallel.shm import SEGMENT_PREFIX, attach_graph, publish_graph

__all__ = [
    "FORWARD_SHARDS",
    "PROCESSES_ENV",
    "SEGMENT_PREFIX",
    "SHARD_TARGET_ENV",
    "WorkerPool",
    "attach_graph",
    "default_processes",
    "forward_shard_counts",
    "get_pool",
    "lineage_fallback",
    "pool_stats",
    "publish_graph",
    "run_forward_shards",
    "shard_target_seconds",
    "shutdown_pool",
]

#: Maximum forward-simulation shards per estimate.  Fixed (not derived
#: from the worker count!) so shard streams — and therefore results — are
#: a pure function of ``(seed, num_samples)``.  16 shards keep a pool of
#: up to 16 workers busy while each dispatch still amortizes its IPC.
FORWARD_SHARDS = 16

#: The pinned no-lineage fallback text (tests assert on this template).
LINEAGE_FALLBACK_MESSAGE = (
    "{caller}: the parallel backend shards worlds over SeedSequence "
    "children, but this EngineContext carries no integer-seed lineage; "
    "falling back to the batched engine. Construct the context from an "
    "integer seed to run sharded."
)


def forward_shard_counts(num_samples: int) -> List[int]:
    """Deterministic world-shard sizes for one forward estimate."""
    shards = min(int(num_samples), FORWARD_SHARDS)
    base, extra = divmod(int(num_samples), shards)
    return [base + (1 if i < extra else 0) for i in range(shards)]


def lineage_fallback(caller: str) -> None:
    """Warn that a lineage-less parallel context degrades to batched.

    Called by the forward driver
    (:func:`repro.diffusion.montecarlo.run_worlds`), so the warning skips
    the driver's and the estimator's frames and names the estimator's
    caller.
    """
    warnings.warn(
        LINEAGE_FALLBACK_MESSAGE.format(caller=caller),
        UserWarning,
        stacklevel=4,
    )


def run_forward_shards(
    graph,
    ctx,
    num_samples: int,
    kernel,
    *,
    processes: Optional[int] = None,
) -> np.ndarray:
    """Fan one forward estimate's worlds over the pool; concatenated values.

    Shards the ``num_samples`` worlds with :func:`forward_shard_counts`,
    seeds shard ``i`` from the context lineage's next ``SeedSequence``
    children, and runs the ``forward_shard`` task on every shard: the
    estimator's batched ``kernel`` (a picklable ``functools.partial``,
    shipped inside each job) called as ``kernel(graph, num_worlds=,
    rng=)``.  The concatenation is in shard order, so downstream
    means/stderrs see one well-defined sample.
    """
    counts = forward_shard_counts(num_samples)
    children = ctx.seed_seq.spawn(len(counts))
    jobs = [(child, count, kernel) for child, count in zip(children, counts)]
    with obs.span(
        "parallel.forward", kernel=kernel.func.__name__,
        samples=int(num_samples), shards=len(counts),
    ):
        parts = get_pool(processes).map_shards("forward_shard", graph, jobs)
    return np.concatenate(parts)
