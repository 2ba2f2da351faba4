"""One pipeline, two drivers.

The evaluate pipeline (:mod:`repro.engine.core`) and the sharded
orchestration (:mod:`repro.sharding.evaluate`) are written once, as
generators of *steps*.  Where a synchronous caller and an asyncio
caller must behave differently — waiting on worker futures, sleeping
between retries, computing a cache miss — the pipeline ``yield``\\ s a
step object and receives the answer; everything else (validation,
planning, caching, the retry/degrade/raise decision, merging, tracing)
is plain code shared by both.

Steps:

* :class:`Compute` — a monolithic cache miss.  The sync engine runs the
  strategy inline; the async engine ships it to its worker pool behind
  single-flight.  Either way the answer is the stored
  :class:`~repro.engine.result.QueryResult`.
* :class:`Dispatch` — a hop onto workers (nested steps); the async
  driver holds a ``max_concurrency`` slot while it runs.
* :class:`Submit`, :class:`Wait`, :class:`Sleep` — the only primitives
  :func:`run_tasks` needs: ``concurrent.futures``/:func:`time.sleep`
  in :func:`drive`, :mod:`asyncio` in :func:`drive_async`.

The sync driver never creates or enters an event loop.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Generator, Hashable, Sequence

from ..obs.trace import current_span
from ..resilience import Deadline, DeadlineExceeded, RetryPolicy

__all__ = [
    "Compute",
    "Dispatch",
    "Sleep",
    "Submit",
    "Wait",
    "answer_async",
    "answer_sync",
    "completed_future",
    "drive",
    "drive_async",
    "run_tasks",
]

Steps = Generator[Any, Any, Any]


@dataclass(frozen=True)
class Compute:
    """Compute a monolithic cache miss; answered with the stored result."""

    call: Any  # repro.engine.core.PreparedCall
    #: The result-cache key, or ``None`` when the call bypasses the cache.
    key: Hashable | None


@dataclass(frozen=True)
class Dispatch:
    """Run nested steps that occupy workers (a concurrency slot)."""

    steps: Steps


@dataclass(frozen=True)
class Submit:
    """Start one task on an executor; answered with its future."""

    executor: Any
    task: Any


@dataclass(frozen=True)
class Wait:
    """Wait for the first of ``futures``; answered with the done ones
    (empty when ``timeout`` ran out first)."""

    futures: tuple
    timeout: float | None


@dataclass(frozen=True)
class Sleep:
    seconds: float


def completed_future(fn: Callable[..., Any], *args: Any) -> concurrent.futures.Future:
    """Run ``fn`` inline and return its outcome as a done future (the
    submit surface of executors that compute in the calling thread)."""
    future: concurrent.futures.Future = concurrent.futures.Future()
    try:
        future.set_result(fn(*args))
    except BaseException as exc:
        future.set_exception(exc)
    return future


# ----------------------------------------------------------------------
# The resilient task loop (shard fan-out and async engine dispatch)
# ----------------------------------------------------------------------
def _retry_admissible(
    exc: BaseException,
    attempts: int,
    retry: RetryPolicy | None,
    deadline: Deadline | None,
    on_error: str,
) -> bool:
    """May this task failure be retried (rather than raised/degraded)?"""
    if on_error == "raise" or retry is None:
        return False
    if deadline is not None and deadline.expired:
        return False
    return attempts < retry.max_attempts and retry.is_retryable(exc)


def run_tasks(
    executor: Any,
    tasks: Sequence[Any],
    *,
    deadline: Deadline | None = None,
    retry: RetryPolicy | None = None,
    on_error: str = "raise",
) -> Steps:
    """Run tasks under the resilience contract (steps; returns a triple).

    Returns ``(results, failures, retries)``: ``results`` aligned with
    ``tasks`` (``None`` per task dropped by ``"degrade"``), ``failures``
    mapping a dropped task's index to its final error, and the total
    number of retries.  ``"raise"`` propagates the first failure;
    ``"retry"`` retries transient failures per ``retry``, then
    propagates; ``"degrade"`` retries, then records the task as failed
    and carries on.  ``deadline`` bounds the whole run — expiry raises
    :class:`DeadlineExceeded` even while tasks are still running.
    However the loop exits, every task still pending is cancelled — on
    the process pool that terminates a sibling already running.

    ``executor`` is a :class:`~repro.engine.workers.WorkerPool` (or
    anything with its ``submit``).  A dead worker fails only its
    own task, which is retried like any transient failure.  Each
    :class:`~repro.engine.workers.TaskResult` that carries a worker span
    tree is grafted under the span live around the fan-out.
    """
    results: list[Any] = [None] * len(tasks)
    failures: dict[int, str] = {}
    retries = 0
    attempts = [0] * len(tasks)
    pending: dict[Any, int] = {}
    try:
        for index, task in enumerate(tasks):
            pending[(yield Submit(executor, task))] = index
        while pending:
            timeout = deadline.remaining() if deadline is not None else None
            done = yield Wait(tuple(pending), timeout)
            if not done:
                raise DeadlineExceeded(
                    f"evaluation exceeded its {deadline.budget:.3f}s deadline "
                    f"with {len(pending)} task(s) still running"
                )
            for future in done:
                index = pending.pop(future)
                try:
                    results[index] = future.result()
                except DeadlineExceeded:
                    raise
                except Exception as exc:
                    attempts[index] += 1
                    if _retry_admissible(exc, attempts[index], retry, deadline, on_error):
                        retries += 1
                        pause = retry.delay(attempts[index])
                        if deadline is not None:
                            pause = min(pause, deadline.remaining())
                        if pause > 0:
                            yield Sleep(pause)
                        pending[(yield Submit(executor, tasks[index]))] = index
                        continue
                    if on_error == "degrade":
                        failures[index] = f"{type(exc).__name__}: {exc}"
                        continue
                    raise
    finally:
        for future in pending:
            if not future.done():
                future.cancel()
            elif not future.cancelled():
                # Finished alongside the failure being raised: read its
                # outcome so no error goes unretrieved.
                future.exception()
    return _grafted(results), failures, retries


def _grafted(results: list[Any]) -> list[Any]:
    """Graft each traced result's worker spans under the live span, in
    task order (``None`` holes are dropped tasks)."""
    for result in results:
        if result is not None and result.trace is not None:
            current_span().graft(result.trace)
    return results


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def drive(steps: Steps, answer: Callable[[Any], Any]) -> Any:
    """Run ``steps`` to completion, answering each step with ``answer``.

    A step whose answer raises has the exception thrown back in at the
    ``yield``, so the pipeline's own ``try``/``with`` blocks (spans,
    the degrade gate, cancelling pending futures) see it.
    """
    value: Any = None
    error: BaseException | None = None
    try:
        while True:
            try:
                step = steps.send(value) if error is None else steps.throw(error)
            except StopIteration as stop:
                return stop.value
            value = error = None
            try:
                value = answer(step)
            except BaseException as exc:
                error = exc
    finally:
        # An escaping exception's traceback holds this frame: drop the
        # reference cycle through ``error``.
        error = None


async def drive_async(steps: Steps, answer: Callable[[Any], Awaitable[Any]]) -> Any:
    """:func:`drive` with an awaitable ``answer``."""
    value: Any = None
    error: BaseException | None = None
    try:
        while True:
            try:
                step = steps.send(value) if error is None else steps.throw(error)
            except StopIteration as stop:
                return stop.value
            value = error = None
            try:
                value = await answer(step)
            except BaseException as exc:
                error = exc
    finally:
        error = None


def answer_sync(step: Any) -> Any:
    """Answer a primitive step by blocking the calling thread."""
    if isinstance(step, Submit):
        return step.executor.submit(step.task)
    if isinstance(step, Wait):
        done, _ = concurrent.futures.wait(
            step.futures,
            timeout=step.timeout,
            return_when=concurrent.futures.FIRST_COMPLETED,
        )
        return done
    if isinstance(step, Sleep):
        time.sleep(step.seconds)
        return None
    raise TypeError(f"unexpected step {step!r}")


async def answer_async(step: Any) -> Any:
    """Answer a primitive step without blocking the event loop."""
    if isinstance(step, Submit):
        return asyncio.wrap_future(step.executor.submit(step.task))
    if isinstance(step, Wait):
        done, _ = await asyncio.wait(
            step.futures, timeout=step.timeout, return_when=asyncio.FIRST_COMPLETED
        )
        return done
    if isinstance(step, Sleep):
        await asyncio.sleep(step.seconds)
        return None
    raise TypeError(f"unexpected step {step!r}")
