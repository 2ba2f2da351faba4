"""The worker protocol: one picklable task, one entry point, one pool.

Every evaluation regime the engine runs is a pure function of (query,
database), so a strategy run can be shipped to a worker as plain data.
One protocol carries it, whether the run is a whole query — a cache miss
of :class:`~repro.engine.aio.AsyncEngine`, or the sync engine computing
inline — or one shard of a sharded query
(:mod:`repro.sharding.evaluate`):

* :class:`Task` — the normalized query, the database, the strategy,
  semantics and options, the deadline, the trace context, and, for a
  shard, its index and partial-cache key.  Everything in it is a frozen
  dataclass or a ``__slots__`` value class, hence picklable.
* :func:`run_task` — the one worker entry point, returning a
  :class:`TaskResult` (the strategy outcome, the worker-side wall time
  and, when traced, the worker's exported span tree).
* :class:`WorkerPool` — runs tasks serially, on a thread pool or on
  the cancellable process pool
  (:mod:`repro.engine.process_pool`), behind the ``submit``/``close``/
  ``kind`` surface :func:`~repro.engine.drive.run_tasks`
  drives.  It is the one pool of the shard fan-out, the async engine
  and the server.

A task carries the strategy object itself, pickled by class reference,
so a process worker needs no registry entry for it — but a strategy run
on the process pool must be importable (defined at module level).
"""

from __future__ import annotations

import concurrent.futures
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Hashable

from ..datamodel.database import Database
from ..obs.trace import SpanContext
from ..resilience import Deadline, FaultPlan, adopt_faults, deadline_scope, fault_point
from .drive import completed_future
from .errors import EngineError
from .frontend import NormalizedQuery
from .process_pool import CancellableProcessExecutor
from .registry import EvaluationStrategy, StrategyOutcome

__all__ = [
    "POOL_KINDS",
    "Task",
    "TaskResult",
    "WorkerPool",
    "pool_kind",
    "run_task",
]


@dataclass(frozen=True)
class Task:
    """One strategy run, self-contained and picklable."""

    normalized: NormalizedQuery
    database: Database
    strategy: EvaluationStrategy
    semantics: str
    options: tuple[tuple[str, Any], ...] = ()
    #: Wall-clock budget carried to the worker (the absolute monotonic
    #: point is system-wide on Linux).  Excluded from equality: a
    #: deadline changes whether a task finishes, never what it computes.
    deadline: Deadline | None = field(default=None, compare=False)
    #: Trace linkage when the caller evaluates with ``trace=True``: the
    #: worker records its own span tree and ships the export back on the
    #: :class:`TaskResult`, where the fan-out grafts it into the live
    #: trace.  Excluded from equality — tracing observes, never steers.
    trace: SpanContext | None = field(default=None, compare=False)
    #: The fault plan armed when the task was built: a process worker
    #: outlives any one arming, so it adopts the plan of each task it
    #: runs.  Excluded from equality, like the deadline.
    faults: FaultPlan | None = field(default=None, compare=False)
    #: The shard index, or ``None`` for a whole-query task.
    shard: int | None = None
    #: The partial-cache key the orchestrator stores a shard's outcome
    #: under (opaque here).
    cache_key: Hashable = field(default=None, compare=False)


@dataclass(frozen=True)
class TaskResult:
    """A strategy outcome plus the worker-side wall-clock time."""

    outcome: StrategyOutcome
    elapsed: float
    #: The worker's exported span tree (``None`` when untraced).
    trace: Any = None


def run_task(task: Task) -> TaskResult:
    """Run one task; also the worker-process entry point.

    A traced task opens a ``worker`` root (whole query) or a
    ``shard[i]`` root (shard task); the ``shard.task`` fault point fires
    for shard tasks only.  A whole-query outcome is finished here
    (:meth:`~repro.engine.registry.EvaluationStrategy.finish`); a shard
    outcome comes back unfinished — its relations and backend note only —
    because the sharded merge unions the shards' relations and finishes
    the union once, on the coalesced database.
    """
    strategy = task.strategy
    if task.shard is None:
        name, attrs = "worker", {"strategy": strategy.name}
    else:
        fault_point("shard.task", shard=task.shard, strategy=strategy.name)
        name, attrs = f"shard[{task.shard}]", {"shard": task.shard, "strategy": strategy.name}
    with nullcontext(None) if task.trace is None else task.trace.activate(name, **attrs) as root:
        start = time.perf_counter()
        # The deadline travels implicitly (context variable), never in
        # ``options``: it must not reach strategy option validation or
        # the cache key.
        with deadline_scope(task.deadline):
            outcome = strategy.run(
                task.normalized,
                task.database,
                semantics=task.semantics,
                **dict(task.options),
            )
            if task.shard is None:
                outcome = strategy.finish(
                    outcome,
                    database=task.database,
                    normalized=task.normalized,
                    semantics=task.semantics,
                )
        elapsed = time.perf_counter() - start
        if root is not None:
            root.incr("rows_out", len(outcome.answer))
    return TaskResult(
        outcome=outcome,
        elapsed=elapsed,
        trace=None if root is None else root.export(),
    )


def _run_in_worker(task: Task) -> TaskResult:
    """The process pool's entry point: arm the task's fault plan in this
    worker (or disarm, for a task built unarmed), then run the task."""
    adopt_faults(task.faults)
    fault_point("pool.worker", fn="run_task")
    return run_task(task)


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
#: Pool kind -> the ``concurrent.futures`` executor class it spawns
#: (``None``: tasks run in the calling thread).
_EXECUTORS = {
    "serial": None,
    "thread": concurrent.futures.ThreadPoolExecutor,
    "process": CancellableProcessExecutor,
}
#: Accepted plural spellings of the kinds.
_SPELLINGS = {"threads": "thread", "processes": "process"}
POOL_KINDS = tuple(_EXECUTORS)


def pool_kind(spec: Any) -> str:
    """The kind of pool ``spec`` names, or :class:`EngineError`.

    ``spec`` is a kind name, ``None`` (serial) or a :class:`WorkerPool`
    (its ``kind``).
    """
    if spec is None:
        return "serial"
    if isinstance(spec, WorkerPool):
        return spec.kind
    if isinstance(spec, str):
        kind = _SPELLINGS.get(spec, spec)
        if kind in _EXECUTORS:
            return kind
    raise EngineError(
        f"unknown worker pool {spec!r}; expected one of {POOL_KINDS} "
        "or a WorkerPool instance"
    )


class WorkerPool:
    """Runs tasks through :func:`run_task`, order-preserving.

    ``kind`` is ``"serial"`` (compute in the calling thread; ``submit``
    hands back an already-done future), ``"thread"`` or ``"process"``
    (a lazily created pool of ``max_workers``, default the CPU count).
    The process pool cancels running tasks by terminating their worker,
    and a worker that dies fails only its own task (a retryable
    :class:`~repro.engine.process_pool.BrokenWorkerError`); no kind
    breaks as a whole.

    Ownership: whoever builds a pool from a kind name closes it; a
    ``WorkerPool`` passed in as ``pool=``/``executor=`` is borrowed and
    never closed by the engine.  ``close`` releases the workers (a
    later ``submit`` spawns fresh ones).  Subclasses overriding
    ``submit`` need not call ``__init__``.
    """

    kind: str = "serial"
    max_workers: int | None = None
    _executor: concurrent.futures.Executor | None = None

    def __init__(self, kind: Any = "serial", max_workers: int | None = None):
        self.kind = pool_kind(kind)
        self.max_workers = max_workers
        self._entry = _run_in_worker if self.kind == "process" else run_task

    def _pool(self) -> concurrent.futures.Executor:
        if self._executor is None:
            self._executor = _EXECUTORS[self.kind](
                max_workers=self.max_workers or (os.cpu_count() or 1)
            )
        return self._executor

    def submit(self, task: Task) -> "concurrent.futures.Future[TaskResult]":
        """Start one task, returning its future."""
        if self.kind == "serial":
            return completed_future(run_task, task)
        return self._pool().submit(self._entry, task)

    def close(self) -> None:
        """Shut down the workers, cancelling tasks not yet started."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.kind!r}, max_workers={self.max_workers})"
