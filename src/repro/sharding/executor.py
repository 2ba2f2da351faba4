"""Shard executors: run per-shard evaluation tasks serially or in parallel.

A :class:`ShardTask` is a self-contained unit of work — a rewritten
plan, the (trimmed) database it runs on, and the strategy to apply — so
it can be shipped to a worker process.  Three executors are provided:

* ``serial`` — evaluate shards one after another in-process (the
  default; also what the per-shard cache tests use);
* ``thread`` — a :class:`concurrent.futures.ThreadPoolExecutor`.  The
  evaluators are pure Python, so threads mostly help when strategies
  release the GIL (they rarely do) — provided for completeness and for
  I/O-bound cache backends;
* ``process`` — a :class:`concurrent.futures.ProcessPoolExecutor`; the
  strategies are pure functions of (plan, database), so fragments
  evaluate in parallel across cores.  The pool is created lazily and
  reused across calls.

Everything a task carries (plans, conditions, relations, nulls) is a
frozen dataclass or a ``__slots__`` value class, hence picklable.
"""

from __future__ import annotations

import concurrent.futures
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Hashable, Mapping, Sequence

from ..algebra import ast as ra
from ..datamodel.database import Database
from ..datamodel.relation import Relation
from ..engine.drive import completed_future
from ..obs.trace import SpanContext
from ..resilience import Deadline, deadline_scope, fault_point

__all__ = [
    "ShardTask",
    "ShardPartial",
    "ShardExecutor",
    "SerialShardExecutor",
    "ThreadShardExecutor",
    "ProcessShardExecutor",
    "resolve_executor",
    "run_shard_task",
]


@dataclass(frozen=True)
class ShardTask:
    """One shard's evaluation: (plan, database, strategy, options)."""

    shard: int
    plan: ra.Query
    database: Database
    strategy: str
    semantics: str
    options: tuple[tuple[str, Any], ...] = ()
    #: Cache key the orchestrator stores the partial under (opaque here).
    cache_key: Hashable = field(default=None, compare=False)
    #: Wall-clock budget carried across the process boundary (the
    #: absolute monotonic point is system-wide on Linux).  Excluded from
    #: equality like the cache key: a deadline never changes what a task
    #: computes, only whether it finishes.
    deadline: Deadline | None = field(default=None, compare=False)
    #: Trace linkage (:class:`repro.obs.SpanContext`) when the
    #: orchestrating evaluation runs with ``trace=True``: the worker
    #: records its own span tree and ships the export back in the
    #: partial's metadata, where the orchestrator grafts it under the
    #: fan-out span.  Excluded from equality like the deadline — tracing
    #: observes, never steers.
    trace: SpanContext | None = field(default=None, compare=False)


@dataclass(frozen=True)
class ShardPartial:
    """What one shard's evaluation produced."""

    shard: int
    answer: Relation
    certain: Relation | None = None
    possible: Relation | None = None
    metadata: Mapping[str, Any] = field(default_factory=dict)


def run_shard_task(task: ShardTask) -> ShardPartial:
    """Evaluate one shard task; also the worker-process entry point."""
    # Imported here so a spawned (rather than forked) worker process
    # registers the built-in strategies before resolving by name.
    from ..engine.frontend import normalize_query
    from ..engine.registry import get_strategy

    fault_point("shard.task", shard=task.shard, strategy=task.strategy)
    strategy = get_strategy(task.strategy)
    trace_export = None
    with (
        nullcontext(None)
        if task.trace is None
        else task.trace.activate(
            f"shard[{task.shard}]", shard=task.shard, strategy=task.strategy
        )
    ) as root:
        normalized = normalize_query(task.plan, task.database.schema())
        with deadline_scope(task.deadline):
            outcome = strategy.run(
                normalized,
                task.database,
                semantics=task.semantics,
                **dict(task.options),
            )
        if root is not None:
            root.incr("rows_out", len(outcome.answer))
    if root is not None:
        trace_export = root.export()
    metadata = dict(outcome.metadata)
    if trace_export is not None:
        metadata["trace"] = trace_export
    return ShardPartial(
        shard=task.shard,
        answer=outcome.answer,
        certain=outcome.certain,
        possible=outcome.possible,
        metadata=metadata,
    )


class ShardExecutor:
    """Base class: maps shard tasks to partial results, order-preserving.

    Besides the blocking ``run`` (the sync fast path), every executor
    hands back one :class:`concurrent.futures.Future` per task from
    ``submit`` — the surface the resilient fan-out
    (:func:`repro.engine.drive.run_tasks`) waits on from both the sync
    and the async engine.  Pooled executors park the work on their
    pools; the serial executor computes at submit time, which is the
    documented trade-off of choosing it.
    """

    kind: str = "abstract"

    def run(self, tasks: Sequence[ShardTask]) -> list[ShardPartial]:
        raise NotImplementedError

    def submit(self, task: ShardTask) -> "concurrent.futures.Future[ShardPartial]":
        """Start one task, returning its future (base: compute inline)."""
        return completed_future(run_shard_task, task)

    def close(self) -> None:
        """Release any worker pool (no-op for in-process executors)."""

    def reset(self) -> None:
        """Drop a (possibly broken) worker pool so the next submit gets a
        fresh one.  The retry path calls this after ``BrokenProcessPool``
        and friends — a crashed worker breaks the whole pool, so reviving
        it is a prerequisite for resubmitting the task."""
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SerialShardExecutor(ShardExecutor):
    """Evaluate shards one after another in the calling process."""

    kind = "serial"

    def run(self, tasks: Sequence[ShardTask]) -> list[ShardPartial]:
        return [run_shard_task(task) for task in tasks]


class _PooledShardExecutor(ShardExecutor):
    """Evaluate shards on a lazily created, reused ``concurrent.futures`` pool."""

    pool_type: type

    def __init__(self, max_workers: int | None = None):
        self.max_workers = max_workers
        self._pool: concurrent.futures.Executor | None = None

    def _ensure_pool(self) -> concurrent.futures.Executor:
        if self._pool is None:
            self._pool = self.pool_type(max_workers=self.max_workers or (os.cpu_count() or 1))
        return self._pool

    def run(self, tasks: Sequence[ShardTask]) -> list[ShardPartial]:
        if len(tasks) <= 1:
            return [run_shard_task(task) for task in tasks]
        return list(self._ensure_pool().map(run_shard_task, tasks))

    def submit(self, task: ShardTask) -> "concurrent.futures.Future[ShardPartial]":
        return self._ensure_pool().submit(run_shard_task, task)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


class ThreadShardExecutor(_PooledShardExecutor):
    """Evaluate shards on a thread pool."""

    kind = "thread"
    pool_type = concurrent.futures.ThreadPoolExecutor


class ProcessShardExecutor(_PooledShardExecutor):
    """Evaluate shards on a process pool (true parallelism)."""

    kind = "process"
    pool_type = concurrent.futures.ProcessPoolExecutor


_EXECUTOR_KINDS = {
    "serial": SerialShardExecutor,
    "thread": ThreadShardExecutor,
    "threads": ThreadShardExecutor,
    "process": ProcessShardExecutor,
    "processes": ProcessShardExecutor,
}


def resolve_executor(spec: "str | ShardExecutor | None") -> ShardExecutor:
    """Turn an executor spec (name or instance) into an executor."""
    if spec is None:
        return SerialShardExecutor()
    if isinstance(spec, ShardExecutor):
        return spec
    cls = _EXECUTOR_KINDS.get(spec)
    if cls is None:
        raise ValueError(
            f"unknown shard executor {spec!r}; expected one of "
            f"{sorted(set(_EXECUTOR_KINDS))} or a ShardExecutor instance"
        )
    return cls()
