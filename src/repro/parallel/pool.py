"""A persistent, lazily-started worker pool over shared-memory graphs.

One :class:`WorkerPool` per process (the :func:`get_pool` singleton),
reused across calls: the ``ProcessPoolExecutor`` is created on the first
pooled dispatch and kept warm, and each distinct graph is published into
shared memory exactly once (keyed by object identity, cleaned up by a
``weakref.finalize`` when the graph is garbage-collected).  A shard call
therefore pays worker spawn and graph transfer only once per process,
not once per build — the two overheads that made the first sharded
builder *lose* to the serial path.

Dispatch contract (:meth:`WorkerPool.map_shards`):

* ``processes <= 1`` (or a single job) runs the shards in-process through
  the *same* task functions with the *same* original graph — byte-for-
  byte the results of the pooled path, which is what keeps sharded
  results deterministic in ``(seed, num_shards)`` and independent of the
  worker count.
* multi-process dispatches regroup *consecutive* micro-shards into
  fewer, larger submissions using per-task (per-kernel, for forward
  shards) wall-clock feedback
  (:class:`_AdaptiveSharder`, tunable via ``$REPRO_SHARD_TARGET_MS``).
  Grouping changes only which worker runs a micro-shard — every
  micro-shard keeps its own arguments and seed — so results stay
  byte-identical to ungrouped dispatch.
* a :class:`BrokenProcessPool` (a worker was killed, OOMed, or died in C
  code) tears the pool down — executor shut down, **every shared-memory
  segment unlinked** so nothing leaks in ``/dev/shm`` — and the dispatch
  is retried once on a fresh pool before the error propagates.

Pool shutdown (explicit :func:`shutdown_pool`, pool reconfiguration, or
the ``atexit`` hook) likewise unlinks every published segment.
"""

from __future__ import annotations

import atexit
import os
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.parallel import tasks as _tasks
from repro.parallel.shm import attach_graph, publish_graph

__all__ = [
    "PROCESSES_ENV",
    "SHARD_TARGET_ENV",
    "WorkerPool",
    "default_processes",
    "get_pool",
    "pool_stats",
    "shard_target_seconds",
    "shutdown_pool",
]

_TASKS_DISPATCHED = obs.counter(
    "repro_parallel_tasks_dispatched_total",
    "Shard tasks executed by pool workers (not the in-process fallback)",
    labels=("task",),
)
_POOL_RESTARTS = obs.counter(
    "repro_parallel_pool_restarts_total",
    "Worker-pool teardowns forced by a BrokenProcessPool crash recovery",
)
_DISPATCH_SECONDS = obs.histogram(
    "repro_parallel_dispatch_seconds",
    "Wall-clock of one map_shards dispatch (all shards, either backend)",
    labels=("task",),
)

#: Environment override for the pool's worker count (0 = in-process).
PROCESSES_ENV = "REPRO_PARALLEL_PROCESSES"

#: Environment override for the adaptive-sharding target milliseconds per
#: dispatched task (0 disables grouping: every micro-shard ships alone).
SHARD_TARGET_ENV = "REPRO_SHARD_TARGET_MS"

#: Default per-dispatch target when the environment doesn't say otherwise:
#: large enough that IPC/pickle overhead is noise, small enough that a
#: straggler group can't serialize the pool.
_DEFAULT_SHARD_TARGET_SECONDS = 0.2


def shard_target_seconds() -> float:
    """Adaptive-sharding target: ``$REPRO_SHARD_TARGET_MS`` > 200ms."""
    env = os.environ.get(SHARD_TARGET_ENV)
    if not env:
        return _DEFAULT_SHARD_TARGET_SECONDS
    millis = float(env)
    if millis < 0:
        raise ValueError(f"${SHARD_TARGET_ENV} must be >= 0, got {env}")
    return millis / 1000.0


def default_processes() -> int:
    """Worker count: ``$REPRO_PARALLEL_PROCESSES`` > effective cores."""
    env = os.environ.get(PROCESSES_ENV)
    if env:
        count = int(env)
        if count < 0:
            raise ValueError(
                f"${PROCESSES_ENV} must be >= 0, got {count}"
            )
        return count
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: Per-worker attachment cache: segment name -> (shm, graph, trigger_csr).
#: Bounded so a long-lived pool cycling through many graphs cannot pin an
#: unbounded number of segments.
_ATTACHED: Dict[str, tuple] = {}
_ATTACH_CAP = 8


def _attached(spec: dict) -> tuple:
    name = spec["name"]
    entry = _ATTACHED.get(name)
    if entry is None:
        graph, trigger_csr, shm = attach_graph(spec)
        while len(_ATTACHED) >= _ATTACH_CAP:
            # FIFO eviction; the numpy views keep the evicted mapping
            # alive until their graph is collected, so dropping the cache
            # entry is safe even mid-task.
            _ATTACHED.pop(next(iter(_ATTACHED)))
        entry = (shm, graph, trigger_csr)
        _ATTACHED[name] = entry
    return entry


def _run_task(payload: Tuple[str, Optional[dict], tuple, Optional[dict]]):
    """Pool entry point: resolve the task by name, attach, run.

    Returns ``(result, span_dict, seconds)``: ``span_dict`` is ``None``
    unless the parent shipped trace metadata, in which case it carries
    this shard's wall-clock, queue wait, and worker pid for the parent to
    adopt; ``seconds`` is the task's own wall-clock, which the parent
    feeds back into the adaptive sharder.
    """
    task_name, spec, args, trace_meta = payload
    _, graph, trigger_csr = _attached(spec)
    fn = _tasks.TASKS[task_name]
    tick: Dict[str, float] = {}
    with obs.stopwatch(tick):
        result, span_dict = obs.record_remote(
            trace_meta, fn, graph, trigger_csr, *args
        )
    return result, span_dict, tick["seconds"]


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def _unlink_quietly(shm) -> None:
    if shm is None:  # file-backed publication: nothing to unlink
        return
    try:
        shm.close()
        shm.unlink()
    except Exception:  # already gone (interpreter teardown, double reset)
        pass


def _job_worlds(job: tuple) -> int:
    """Monte-Carlo worlds a shard job covers (the cost proxy).

    Every shard task follows the ``(seed_seq, count, *rest)`` argument
    convention, so the count sits at index 1; jobs that don't look like
    that count as one world each.
    """
    if len(job) > 1 and isinstance(job[1], int):
        return max(int(job[1]), 1)
    return 1


def _history_key(task: str, job: tuple) -> str:
    """The sharder's history key: the task, plus a forward job's kernel.

    Forward kernels differ by orders of magnitude in seconds per world.
    """
    if task != "forward_shard":
        return task
    return f"{task}:{job[-1].func.__name__}"


class _AdaptiveSharder:
    """Wall-clock feedback → how many micro-shards to ship per task.

    The forward estimators always split work into
    :data:`~repro.parallel.FORWARD_SHARDS` fixed micro-shards so results
    stay a pure function of ``(seed, num_samples)``.  On a small run each
    micro-shard lasts microseconds and IPC dominates; on a web-scale
    graph one micro-shard alone can run for seconds.  This class keeps an
    exponentially-weighted average of observed seconds-per-world for each
    task (each kernel, for forward shards: see :func:`_history_key`) and
    greedily packs *consecutive* micro-shards into dispatch
    groups that each land near the target wall-clock.  Grouping only
    changes which process executes a micro-shard, never its arguments or
    its seed — each group replays its members one by one — so results are
    byte-identical to singleton dispatch.
    """

    #: EWMA weight of the newest observation.
    _GAIN = 0.3

    def __init__(self) -> None:
        self._rate: Dict[str, float] = {}  # key -> EWMA seconds per world

    def observe(self, key: str, worlds: int, seconds: float) -> None:
        """Feed one executed micro-shard's wall-clock back in."""
        if worlds <= 0 or seconds <= 0.0:
            return
        rate = seconds / worlds
        prev = self._rate.get(key)
        self._rate[key] = (
            rate
            if prev is None
            else prev + self._GAIN * (rate - prev)
        )

    def plan(
        self,
        key: str,
        jobs: Sequence[tuple],
        processes: int,
        target_seconds: float,
    ) -> List[List[int]]:
        """Group job indices (consecutive, order-preserving) for dispatch.

        Without timing history — or with grouping disabled — every job
        ships alone, which is exactly the pre-adaptive dispatch.  A group
        never exceeds ``ceil(len(jobs) / processes)`` members, so the
        pool always has at least ``processes`` groups to load-balance.
        """
        rate = self._rate.get(key)
        if rate is None or rate <= 0.0 or target_seconds <= 0.0:
            return [[index] for index in range(len(jobs))]
        max_members = -(-len(jobs) // max(processes, 1))
        groups: List[List[int]] = []
        current: List[int] = []
        current_seconds = 0.0
        for index, job in enumerate(jobs):
            estimate = _job_worlds(job) * rate
            if current and (
                current_seconds + estimate > target_seconds
                or len(current) >= max_members
            ):
                groups.append(current)
                current, current_seconds = [], 0.0
            current.append(index)
            current_seconds += estimate
        if current:
            groups.append(current)
        return groups


class WorkerPool:
    """Persistent process pool + shared-memory graph registry."""

    def __init__(self, processes: Optional[int] = None):
        self._processes = (
            default_processes() if processes is None else max(0, int(processes))
        )
        self._executor: Optional[ProcessPoolExecutor] = None
        # publish cache: (id(graph), id(trigger_csr) | None) -> (shm, spec)
        self._segments: Dict[tuple, tuple] = {}
        self._trigger_csrs: Dict[tuple, object] = {}
        self._sharder = _AdaptiveSharder()
        self._tasks_dispatched = 0
        self._restarts = 0

    @property
    def processes(self) -> int:
        """Configured worker count (0/1 = everything runs in-process)."""
        return self._processes

    @property
    def tasks_dispatched(self) -> int:
        """Shard tasks actually executed by pool workers (not in-process).

        Benchmarks assert on this to fail loudly when a supposedly
        multi-process measurement silently took the in-process fallback.
        """
        return self._tasks_dispatched

    @property
    def restarts(self) -> int:
        """Crash recoveries: pool teardowns forced by BrokenProcessPool."""
        return self._restarts

    def stats(self) -> Dict[str, int]:
        """Counters for ``/v1/stats`` and ``repro obs``."""
        return {
            "processes": self._processes,
            "tasks_dispatched": self._tasks_dispatched,
            "restarts": self._restarts,
            "segments": len(self._segments),
        }

    @property
    def segment_names(self) -> List[str]:
        """Names of the currently published segments (leak tests).

        File-backed publications (``.graph`` mmaps) create no segment
        and therefore never appear here.
        """
        return [
            shm.name
            for shm, _ in self._segments.values()
            if shm is not None
        ]

    # ------------------------------------------------------------------
    # Graph publication
    # ------------------------------------------------------------------
    def _publish(self, graph, trigger_csr) -> dict:
        key = (id(graph), id(trigger_csr) if trigger_csr is not None else None)
        entry = self._segments.get(key)
        if entry is None:
            shm, spec = publish_graph(graph, trigger_csr)
            self._segments[key] = (shm, spec)
            # Unpublish when the graph dies: keyed by identity, so a
            # recycled id() must never resolve to a stale segment.
            weakref.finalize(graph, self._drop_segment, key)
            entry = (shm, spec)
        return entry[1]

    def _drop_segment(self, key) -> None:
        entry = self._segments.pop(key, None)
        if entry is not None:
            _unlink_quietly(entry[0])

    def _trigger_csr_for(self, graph, triggering):
        from repro.diffusion.triggering import (
            build_trigger_csr,
            has_trigger_distribution,
            needs_trigger_csr,
        )

        if triggering is None or not needs_trigger_csr(triggering):
            return None
        if not has_trigger_distribution(triggering):
            return None  # sequential-only model; shards fall back per set
        key = (id(graph), id(triggering))
        csr = self._trigger_csrs.get(key)
        if csr is None:
            csr = build_trigger_csr(graph, triggering)
            self._trigger_csrs[key] = csr
            weakref.finalize(graph, self._trigger_csrs.pop, key, None)
        return csr

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def map_shards(
        self,
        task: str,
        graph,
        jobs: Sequence[tuple],
        *,
        triggering=None,
    ) -> List:
        """Run ``task(graph, trigger_csr, *job)`` for every job, in order.

        ``task`` names a :data:`repro.parallel.tasks.TASKS` entry.
        ``triggering`` (an already-resolved model, or ``None``) only
        controls whether a compiled :class:`TriggerCSR` is published
        alongside the graph — the jobs themselves carry whatever model
        arguments their task needs.  Results are returned in job order
        and are identical whichever side executed them.
        """
        jobs = list(jobs)
        if not jobs:
            return []
        if task not in _tasks.TASKS:
            raise ValueError(f"unknown shard task {task!r}")
        with _DISPATCH_SECONDS.timer(task=task):
            return self._map_shards_timed(task, graph, jobs, triggering)

    def _map_shards_timed(self, task, graph, jobs, triggering) -> List:
        trigger_csr = self._trigger_csr_for(graph, triggering)
        if self._processes <= 1 or len(jobs) == 1:
            fn = _tasks.TASKS[task]
            results = []
            for index, job in enumerate(jobs):
                with obs.span(
                    "parallel.task", task=task, shard=index, mode="inline"
                ):
                    results.append(fn(graph, trigger_csr, *job))
            return results

        key = _history_key(task, jobs[0])
        groups = self._sharder.plan(
            key, jobs, self._processes, shard_target_seconds()
        )

        def _payloads(spec):
            payloads = []
            for group in groups:
                if len(group) == 1:
                    index = group[0]
                    payloads.append(
                        (
                            task,
                            spec,
                            tuple(jobs[index]),
                            obs.remote_span_payload(
                                "parallel.task",
                                task=task,
                                shard=index,
                                mode="pool",
                            ),
                        )
                    )
                else:
                    payloads.append(
                        (
                            _tasks.GROUPED_TASK,
                            spec,
                            (task, [tuple(jobs[i]) for i in group]),
                            obs.remote_span_payload(
                                "parallel.task",
                                task=task,
                                shard=group[0],
                                shards=len(group),
                                mode="pool-grouped",
                            ),
                        )
                    )
            return payloads

        spec = self._publish(graph, trigger_csr)
        try:
            shipped = self._submit(_payloads(spec))
        except BrokenProcessPool:
            # A worker died mid-flight.  Tear everything down (unlinking
            # the segments — no /dev/shm leak survives a crash), then
            # retry once on a fresh pool; a second failure propagates,
            # again leaving nothing behind in /dev/shm.
            self.reset()
            self._restarts += 1
            _POOL_RESTARTS.inc()
            spec = self._publish(graph, trigger_csr)
            try:
                shipped = self._submit(_payloads(spec))
            except BrokenProcessPool:
                self.reset()
                self._restarts += 1
                _POOL_RESTARTS.inc()
                raise
        # Counted in micro-shards, not dispatch groups: the counter's
        # contract is "shard tasks executed by pool workers" and grouped
        # dispatch still executes every micro-shard.
        self._tasks_dispatched += len(jobs)
        _TASKS_DISPATCHED.inc(len(jobs), task=task)
        ordered: List = [None] * len(jobs)
        for group, (result, span_dict, seconds) in zip(groups, shipped):
            obs.adopt(span_dict)
            if len(group) == 1:
                index = group[0]
                ordered[index] = result
                self._sharder.observe(
                    key, _job_worlds(jobs[index]), seconds
                )
            else:
                sub_results, sub_seconds = result
                for index, sub_result, sub_sec in zip(
                    group, sub_results, sub_seconds
                ):
                    ordered[index] = sub_result
                    self._sharder.observe(
                        key, _job_worlds(jobs[index]), sub_sec
                    )
        return ordered

    def _submit(self, payloads) -> List:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self._processes
            )
        return list(self._executor.map(_run_task, payloads))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Shut the executor down and unlink every published segment.

        The pool object stays usable: the next dispatch lazily starts a
        fresh executor and republishes whatever graphs it needs.
        """
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        for shm, _ in self._segments.values():
            _unlink_quietly(shm)
        self._segments.clear()

    def reconfigure(self, processes: int) -> None:
        """Change the worker count (tears down the current executor)."""
        processes = max(0, int(processes))
        if processes == self._processes:
            return
        self.reset()
        self._processes = processes

    def shutdown(self) -> None:
        """Tear everything down (terminal; get a new pool via get_pool)."""
        self.reset()
        self._trigger_csrs.clear()


_POOL: Optional[WorkerPool] = None


def get_pool(processes: Optional[int] = None) -> WorkerPool:
    """The process-wide pool, lazily created.

    ``processes=None`` reuses the existing pool as-is (creating it at
    :func:`default_processes` if absent); an explicit count reconfigures
    a pool whose count differs.  Worker count never affects results —
    only wall-clock — so callers that don't care simply pass ``None``.
    """
    global _POOL
    if _POOL is None:
        _POOL = WorkerPool(processes)
        atexit.register(_shutdown_at_exit)
    elif processes is not None:
        _POOL.reconfigure(processes)
    return _POOL


def pool_stats() -> Dict[str, int]:
    """Stats of the process-wide pool without forcing its creation.

    All-zero counters (and ``active: 0``) when no pool exists — the
    serving stats endpoint reports this on processes that never ran a
    pooled dispatch.
    """
    if _POOL is None:
        return {
            "active": 0,
            "processes": 0,
            "tasks_dispatched": 0,
            "restarts": 0,
            "segments": 0,
        }
    stats: Dict[str, int] = {"active": 1}
    stats.update(_POOL.stats())
    return stats


def shutdown_pool() -> None:
    """Shut down and forget the process-wide pool (tests, reconfigure)."""
    global _POOL
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None


def _shutdown_at_exit() -> None:  # pragma: no cover - interpreter teardown
    try:
        shutdown_pool()
    except Exception:
        pass
