"""The ``"process"`` worker pool: in-flight tasks can actually be cancelled.

The standard library's process pool cannot cancel a running task:
``Future.cancel()`` returns ``False`` once a worker has picked the task
up, so a failed sibling shard or a cancelled request leaves the
worker grinding through an evaluation nobody wants — for the coNP-hard
exact certain answers that is a stolen core for a long time.  One dead
worker also breaks that whole pool, failing every sibling task.

:class:`CancellableProcessExecutor` closes both gaps with a deliberately
different state machine: futures are never moved to RUNNING, so the
*base* ``cancel()`` transition (PENDING → CANCELLED, waiters notified)
always succeeds, and the override additionally **terminates the worker
process** that was executing the task, then respawns it for the next
one.  :func:`~repro.engine.drive.run_tasks` cancels the siblings of a
failed task this way, and asyncio's executor-future chaining
(``asyncio.wrap_future`` propagates task cancellation into
``Future.cancel()``) carries a cancelled ``await`` inside
:class:`~repro.engine.aio.AsyncEngine` all the way into the worker.

Design: one dispatcher *thread* per worker *process*, joined by a shared
deque of jobs.  Each dispatcher sends one pickled ``(fn, args, kwargs)``
triple down its pipe, blocks on the reply, and resolves the future.  A
terminated worker surfaces as ``EOFError`` on the pipe; the dispatcher
respawns the process and moves on (expected after a cancel, a
retryable :class:`BrokenWorkerError` on that one future otherwise).

Start method: every worker forks from one ``forkserver``, started with
``repro.engine.workers`` (and, as the standard library does,
``__main__``) preloaded, so a worker starts with the engine imported
and inherits nothing of the parent's threads — no lock one of them held,
no pipe end of a sibling being spawned.  Nothing reaches a worker by
inheritance: what it runs arrives pickled, so a strategy run on this
pool must be importable, and a script that builds the pool needs the
``if __name__ == "__main__":`` guard.
"""

from __future__ import annotations

import collections
import concurrent.futures
import itertools
import multiprocessing
import os
import sys
import threading
from typing import Any, Callable

from ..datamodel.values import renew_fresh_nulls
from ..resilience import fault_point

__all__ = ["BrokenWorkerError", "CancellableFuture", "CancellableProcessExecutor"]


class BrokenWorkerError(RuntimeError):
    """A worker process died while running a task that was not cancelled."""


#: The process that imported this module.  A worker forked from the
#: preloaded server finds the server's pid here, not its own.
_IMPORTED_IN = os.getpid()

#: Serialises starting the server (it briefly rewrites ``PYTHONPATH``).
_START_LOCK = threading.Lock()


def _forkserver_context() -> multiprocessing.context.BaseContext:
    """The ``forkserver`` context, its server running with the engine
    preloaded from this process's ``sys.path``.

    Python 3.10–3.13's server ignores the ``sys_path`` it is handed and
    swallows a preload ``ImportError``, so an engine importable only
    through a runtime ``sys.path`` insert would silently not preload.
    The server is therefore started with this process's ``sys.path`` as
    its ``PYTHONPATH``, restored right after start-up.
    """
    from multiprocessing import forkserver  # only processes that build a pool need it

    ctx = multiprocessing.get_context("forkserver")
    with _START_LOCK:
        forkserver.set_forkserver_preload(["__main__", "repro.engine.workers"])
        saved = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join(path for path in sys.path if path)
        try:
            forkserver.ensure_running()
        finally:
            if saved is None:
                del os.environ["PYTHONPATH"]
            else:
                os.environ["PYTHONPATH"] = saved
    return ctx


def _worker_main(conn) -> None:
    """Worker-process loop: receive ``(fn, args, kwargs)``, reply once each."""
    # Every worker starts from the server's label counter: without a
    # label space of its own, its fresh nulls would repeat labels the
    # parent or a sibling minted.
    renew_fresh_nulls()
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            return
        if item is None:
            return
        fn, args, kwargs = item
        try:
            reply = (True, fn(*args, **kwargs))
        except BaseException as exc:  # noqa: BLE001 - shipped to the parent
            reply = (False, exc)
        try:
            conn.send(reply)
        except (OSError, BrokenPipeError):
            return
        except Exception as exc:  # unpicklable result/exception
            try:
                conn.send((False, RuntimeError(f"unpicklable worker reply: {exc}")))
            except (OSError, BrokenPipeError):
                return


class _Job:
    __slots__ = ("future", "fn", "args", "kwargs", "dispatcher")

    def __init__(self, future, fn, args, kwargs):
        self.future = future
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        #: The dispatcher currently running this job (None while queued).
        self.dispatcher: "_Dispatcher | None" = None


class CancellableFuture(concurrent.futures.Future):
    """A future whose ``cancel()`` also works while the task is running.

    The executor never calls ``set_running_or_notify_cancel``, so the
    base-class transition succeeds at any point before completion; when
    the job is already on a worker, the worker process is terminated
    (and respawned by its dispatcher).
    """

    def __init__(self, executor: "CancellableProcessExecutor", job_factory):
        super().__init__()
        self._executor = executor
        self._job: _Job = job_factory(self)

    def cancel(self) -> bool:
        executor = self._executor
        with executor._lock:
            cancelled = super().cancel()
            if not cancelled:
                return False
            job = self._job
            try:
                executor._queue.remove(job)
            except ValueError:
                # Not queued: a dispatcher owns it — kill its worker.
                if job.dispatcher is not None:
                    job.dispatcher.terminate_worker()
        return True


class _Dispatcher:
    """One parent-side thread driving one reusable worker process."""

    def __init__(self, executor: "CancellableProcessExecutor", index: int):
        self.executor = executor
        self.index = index
        self.conn = None
        self.process = None
        self.thread = threading.Thread(
            target=self._run, name=f"repro-pool-{index}", daemon=True
        )
        self.thread.start()

    # Called with the executor lock held (from cancel / shutdown).
    def terminate_worker(self) -> None:
        if self.process is not None and self.process.is_alive():
            self.process.terminate()

    def _spawn(self) -> None:
        ctx = self.executor._ctx
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True,
            name=f"repro-pool-worker-{self.index}",
        )
        process.start()
        child_conn.close()
        with self.executor._lock:
            self.conn, self.process = parent_conn, process

    def _retire(self) -> None:
        with self.executor._lock:
            conn, process = self.conn, self.process
            self.conn = self.process = None
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        if process is not None:
            if process.is_alive():
                process.terminate()
            process.join()

    def _run(self) -> None:
        executor = self.executor
        try:
            while True:
                job = executor._next_job(self)
                if job is None:
                    return
                try:
                    self._execute(job)
                except BaseException as exc:  # noqa: BLE001 - keep dispatching
                    # A dispatcher must never die holding a job: an
                    # unexpected raise (a pipe gone weird, an injected
                    # fault) used to kill this thread silently, leaving
                    # the job's future — and every job queued behind it —
                    # pending forever.  Fail the future, drop the worker,
                    # and keep serving the queue with a fresh one.
                    self._fail_job(job, exc)
        finally:
            self._retire()

    def _fail_job(self, job: _Job, exc: BaseException) -> None:
        self._retire()
        with self.executor._lock:
            job.dispatcher = None
        if not job.future.done():
            try:
                job.future.set_exception(
                    BrokenWorkerError(
                        f"dispatcher crashed while running {job.fn!r} "
                        f"({type(exc).__name__}: {exc})"
                    )
                )
            except concurrent.futures.InvalidStateError:
                pass  # cancelled in the race window

    def _execute(self, job: _Job) -> None:
        executor = self.executor
        fault_point("pool.dispatch", worker=self.index)
        if self.process is None or not self.process.is_alive():
            self._retire()
            self._spawn()
        try:
            if job.future.cancelled():
                # Cancelled while the worker was being spawned, when
                # there was no process yet for the cancel to terminate.
                return
            self.conn.send((job.fn, job.args, job.kwargs))
            ok, payload = self.conn.recv()
        except (EOFError, OSError, BrokenPipeError):
            # The worker died mid-task: expected when the job (or the
            # whole executor) was cancelled, a broken worker otherwise.
            self._retire()
            if not job.future.cancelled() and not executor._shutdown:
                job.future.set_exception(
                    BrokenWorkerError(
                        f"worker process died while running {job.fn!r}"
                    )
                )
            return
        except Exception as exc:  # the job itself would not pickle
            if not job.future.cancelled():
                job.future.set_exception(exc)
            return
        finally:
            with executor._lock:
                job.dispatcher = None
        try:
            if ok:
                job.future.set_result(payload)
            else:
                job.future.set_exception(payload)
        except concurrent.futures.InvalidStateError:
            # Cancelled in the race window after the reply arrived; the
            # cancel path also terminated the (already idle) worker, so
            # the next _execute respawns it.
            pass


class CancellableProcessExecutor(concurrent.futures.Executor):
    """A ``concurrent.futures.Executor`` with running-task cancellation.

    The executor behind ``WorkerPool("process")``; the extra guarantee
    is that ``future.cancel()`` succeeds (and kills the worker) even
    after the task started.  ``max_workers`` defaults to the CPU count.
    """

    def __init__(self, max_workers: int | None = None):
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be a positive integer or None")
        self._max_workers = max_workers or os.cpu_count() or 1
        self._ctx = _forkserver_context()
        self._lock = threading.Lock()
        self._have_work = threading.Condition(self._lock)
        self._queue: collections.deque[_Job] = collections.deque()
        self._dispatchers: list[_Dispatcher] = []
        self._counter = itertools.count()
        self._shutdown = False

    # ------------------------------------------------------------------
    # Executor surface
    # ------------------------------------------------------------------
    def submit(self, fn: Callable, /, *args: Any, **kwargs: Any) -> CancellableFuture:
        with self._lock:
            if self._shutdown:
                raise RuntimeError("cannot schedule new futures after shutdown")
            future = CancellableFuture(
                self, lambda f: _Job(f, fn, args, kwargs)
            )
            self._queue.append(future._job)
            if len(self._dispatchers) < self._max_workers:
                self._dispatchers.append(_Dispatcher(self, next(self._counter)))
            self._have_work.notify()
        return future

    def _next_job(self, dispatcher: _Dispatcher) -> _Job | None:
        with self._lock:
            while True:
                if self._shutdown and not self._queue:
                    return None
                if self._queue:
                    job = self._queue.popleft()
                    job.dispatcher = dispatcher
                    return job
                self._have_work.wait()

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        with self._lock:
            self._shutdown = True
            if cancel_futures:
                queued, self._queue = list(self._queue), collections.deque()
            else:
                queued = []
            dispatchers = list(self._dispatchers)
            self._have_work.notify_all()
        for job in queued:
            job.future.cancel()
        if wait:
            for dispatcher in dispatchers:
                dispatcher.thread.join()

    # ------------------------------------------------------------------
    # Introspection (for tests)
    # ------------------------------------------------------------------
    def worker_pids(self) -> list[int]:
        """PIDs of the currently live worker processes."""
        with self._lock:
            return [
                d.process.pid
                for d in self._dispatchers
                if d.process is not None and d.process.is_alive()
            ]
