"""Shard tasks the worker pool executes against a shared graph.

Every task is a module-level function (picklable by name) with the fixed
calling convention

    task(graph, trigger_csr, seed_seq, count, *rest)

where ``graph``/``trigger_csr`` are injected by the pool — the original
objects for in-process execution, zero-copy shared-memory attachments
inside workers — and ``seed_seq`` is the shard's own ``SeedSequence``
child.  Because a shard's result depends only on its ``(seed_seq, count,
rest)`` arguments and the graph arrays (bit-identical either way the
graph arrives), results are byte-for-byte independent of *where* the
shard ran: the pooled and in-process paths are interchangeable, which is
the determinism contract ``processes ∈ {0, 2, 4}`` tests pin.

The reverse task samples RR sets through :class:`RRCollection`; the one
forward task runs whichever batched Monte-Carlo kernel its job carries on
its slice of the worlds.  Nothing here spawns further parallelism.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["GROUPED_TASK", "TASKS"]


def rr_shard(
    graph,
    trigger_csr,
    seed_seq: np.random.SeedSequence,
    count: int,
    triggering: Optional[str],
    backend: Optional[str],
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample one RR-set shard; returns flat ``(members, lengths)``."""
    from repro.engine import EngineContext
    from repro.rrset.rrgen import RRCollection

    ctx = EngineContext.create(
        backend=backend,
        rng=np.random.default_rng(seed_seq),
        triggering=triggering,
    )
    collection = RRCollection(graph, ctx=ctx)
    if trigger_csr is not None:
        # Adopt the published compilation instead of re-deriving it —
        # the per-node distribution pass is the one Python-level cost of
        # generic triggering models.
        collection._trigger_csr = trigger_csr
    collection.extend_to(count)
    members, offsets = collection.flat_arrays()
    return members.copy(), np.diff(offsets)


def forward_shard(
    graph,
    trigger_csr,
    seed_seq: np.random.SeedSequence,
    count: int,
    kernel,
) -> np.ndarray:
    """Per-world values of ``count`` forward worlds from this shard's seed.

    ``kernel`` is the estimator's batched Monte-Carlo kernel, shipped in
    the job: a ``functools.partial`` of ``batch_uic_welfare``,
    ``batch_uic_counts``, ``batch_comic_counts`` or
    ``batch_simulate_uic_personalized`` holding every model argument.
    """
    return kernel(
        graph, num_worlds=count, rng=np.random.default_rng(seed_seq)
    )


def grouped_shards(
    graph,
    trigger_csr,
    task_name: str,
    subjobs: Sequence[tuple],
) -> Tuple[List, List[float]]:
    """Run several micro-shards of one task back to back in this worker.

    The adaptive sharder (:mod:`repro.parallel.pool`) ships this wrapper
    when per-micro-shard wall-clock is small enough that IPC dominates.
    Each subjob keeps exactly the arguments (and ``SeedSequence`` child)
    it would have carried as a singleton submission, and runs through the
    same task function sequentially — so the concatenated results are
    byte-identical to ungrouped dispatch.  Returns ``(results,
    seconds)``, the per-micro-shard wall-clocks feeding the sharder's
    next plan.
    """
    from repro import obs

    fn = TASKS[task_name]
    results: List = []
    seconds: List[float] = []
    for job in subjobs:
        tick: dict = {}
        with obs.stopwatch(tick):
            results.append(fn(graph, trigger_csr, *job))
        seconds.append(tick["seconds"])
    return results, seconds


#: The registry name the pool uses to ship grouped micro-shards.
GROUPED_TASK = "grouped_shards"


def _kill_worker(graph, trigger_csr, seed_seq, count) -> None:
    """Test hook: hard-kill the executing worker (crash-recovery tests)."""
    import os
    import signal

    os.kill(os.getpid(), signal.SIGKILL)


#: Name → task registry; submissions carry the name, workers resolve it.
TASKS = {
    fn.__name__: fn
    for fn in (
        rr_shard,
        forward_shard,
        grouped_shards,
        _kill_worker,
    )
}
