"""Cancellation semantics of the async engine and the cancellable pool.

The contract under test (see :mod:`repro.engine.aio`):

* a cancelled ``await engine.evaluate(...)`` must NOT insert the
  worker's result into the result cache — the next identical call is a
  genuine recomputation, not a stale hit;
* single-flight coalescing survives cancellation: cancelling the
  *leader* leaves the shared computation running for followers (computed
  exactly once), cancelling *every* awaiter abandons it (recomputed on
  the next call), and nobody ever hangs;
* :class:`repro.engine.process_pool.CancellableProcessExecutor` (the
  ``"process"`` worker pool) cancels running tasks for real — the worker
  process is terminated and respawned.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.datamodel.database import Database
from repro.datamodel.relation import Relation
from repro.datamodel.values import fresh_null
from repro.engine import AsyncEngine
from repro.engine.registry import (
    EvaluationStrategy,
    StrategyCapabilities,
    StrategyOutcome,
    register_strategy,
    unregister_strategy,
)
from repro.engine.process_pool import BrokenWorkerError, CancellableProcessExecutor

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def tiny_db() -> Database:
    return Database.from_dict({"R": (("a",), [(1,), (2,)])})


class _Gate:
    """A controllable strategy: counts runs, blocks until released."""

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()
        self.lock = threading.Lock()
        self.runs = 0


def _register_gated(name: str, gate: _Gate) -> None:
    @register_strategy(name)
    class _GatedStrategy(EvaluationStrategy):
        capabilities = StrategyCapabilities(semantics=("set",))

        def run(self, query, database, *, semantics, **options):
            with gate.lock:
                gate.runs += 1
            gate.started.set()
            if not gate.release.wait(timeout=10):
                raise TimeoutError("gate never released")
            return StrategyOutcome(answer=Relation(("a",), [(1,)]))


async def _wait_for(predicate, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise TimeoutError("condition never became true")
        await asyncio.sleep(0.01)


# ----------------------------------------------------------------------
# Cancelled awaits never populate the cache
# ----------------------------------------------------------------------
def test_cancelled_evaluate_is_not_cached(tiny_db):
    gate = _Gate()
    _register_gated("test-cancel-nocache", gate)
    try:

        async def main():
            async with AsyncEngine(pool="thread", max_workers=2) as engine:
                task = asyncio.create_task(
                    engine.evaluate(
                        "SELECT a FROM R", tiny_db, strategy="test-cancel-nocache"
                    )
                )
                await _wait_for(gate.started.is_set)
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                gate.release.set()
                # Give the abandoned worker thread time to finish: if the
                # bug were present, its result would land in the cache now.
                await asyncio.sleep(0.2)
                result = await engine.evaluate(
                    "SELECT a FROM R", tiny_db, strategy="test-cancel-nocache"
                )
                return result

        result = asyncio.run(main())
        assert result.from_cache is False
        assert gate.runs == 2  # genuinely recomputed, not served stale
    finally:
        unregister_strategy("test-cancel-nocache")


# ----------------------------------------------------------------------
# Single-flight × cancellation
# ----------------------------------------------------------------------
def test_leader_cancelled_follower_adopts_computation(tiny_db):
    gate = _Gate()
    _register_gated("test-cancel-adopt", gate)
    try:

        async def main():
            async with AsyncEngine(pool="thread", max_workers=2) as engine:
                leader = asyncio.create_task(
                    engine.evaluate(
                        "SELECT a FROM R", tiny_db, strategy="test-cancel-adopt"
                    )
                )
                await _wait_for(gate.started.is_set)
                follower = asyncio.create_task(
                    engine.evaluate(
                        "SELECT a FROM R", tiny_db, strategy="test-cancel-adopt"
                    )
                )
                # Both awaiters must be attached to the flight before the
                # leader is cancelled.
                await _wait_for(
                    lambda: any(f.waiters == 2 for f in engine._pending.values())
                )
                leader.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await leader
                gate.release.set()
                return await asyncio.wait_for(follower, timeout=10)

        result = asyncio.run(main())
        assert result.relation.sorted_rows() == [(1,)]
        assert gate.runs == 1  # the follower adopted, no re-issue needed
    finally:
        unregister_strategy("test-cancel-adopt")


def test_all_awaiters_cancelled_then_recomputed(tiny_db):
    gate = _Gate()
    _register_gated("test-cancel-all", gate)
    try:

        async def main():
            async with AsyncEngine(pool="thread", max_workers=2) as engine:
                tasks = [
                    asyncio.create_task(
                        engine.evaluate(
                            "SELECT a FROM R", tiny_db, strategy="test-cancel-all"
                        )
                    )
                    for _ in range(2)
                ]
                await _wait_for(gate.started.is_set)
                await _wait_for(
                    lambda: any(f.waiters == 2 for f in engine._pending.values())
                )
                for task in tasks:
                    task.cancel()
                for task in tasks:
                    with pytest.raises(asyncio.CancelledError):
                        await task
                # The abandoned flight must be gone, not lingering.
                assert not engine._pending
                gate.release.set()
                await asyncio.sleep(0.2)
                return await engine.evaluate(
                    "SELECT a FROM R", tiny_db, strategy="test-cancel-all"
                )

        result = asyncio.run(main())
        assert result.from_cache is False
        assert gate.runs == 2
    finally:
        unregister_strategy("test-cancel-all")


def test_follower_after_cancelled_flight_reissues(tiny_db):
    """A new arrival after total cancellation starts a fresh flight."""
    gate = _Gate()
    _register_gated("test-cancel-reissue", gate)
    try:

        async def main():
            async with AsyncEngine(pool="thread", max_workers=2) as engine:
                leader = asyncio.create_task(
                    engine.evaluate(
                        "SELECT a FROM R", tiny_db, strategy="test-cancel-reissue"
                    )
                )
                await _wait_for(gate.started.is_set)
                leader.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await leader
                gate.release.set()
                # Never hangs on the dead flight: a fresh one is created.
                return await asyncio.wait_for(
                    engine.evaluate(
                        "SELECT a FROM R", tiny_db, strategy="test-cancel-reissue"
                    ),
                    timeout=10,
                )

        result = asyncio.run(main())
        assert result.relation.sorted_rows() == [(1,)]
    finally:
        unregister_strategy("test-cancel-reissue")


# ----------------------------------------------------------------------
# CancellableProcessExecutor
# ----------------------------------------------------------------------
def test_pool_runs_and_propagates_exceptions():
    with CancellableProcessExecutor(max_workers=1) as pool:
        assert pool.submit(divmod, 7, 2).result(timeout=30) == (3, 1)
        with pytest.raises(ZeroDivisionError):
            pool.submit(divmod, 1, 0).result(timeout=30)
    assert multiprocessing.active_children() == []


def test_pool_cancels_running_task_and_respawns_worker():
    pool = CancellableProcessExecutor(max_workers=1)
    try:
        future = pool.submit(time.sleep, 30)
        deadline = time.monotonic() + 10
        while not pool.worker_pids():
            assert time.monotonic() < deadline, "worker never spawned"
            time.sleep(0.02)
        time.sleep(0.1)  # let the worker actually pick the task up
        before = pool.worker_pids()
        start = time.monotonic()
        assert future.cancel() is True  # running-cancel succeeds
        assert future.cancelled()
        # The replacement task runs on a fresh worker, promptly.
        assert pool.submit(divmod, 9, 4).result(timeout=30) == (2, 1)
        assert time.monotonic() - start < 25  # did not wait out the sleep
        assert pool.worker_pids() != before
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    assert multiprocessing.active_children() == []


def test_pool_cancels_queued_task_without_running_it():
    pool = CancellableProcessExecutor(max_workers=1)
    try:
        blocker = pool.submit(time.sleep, 30)
        queued = pool.submit(divmod, 1, 1)
        assert queued.cancel() is True
        assert blocker.cancel() is True
        with pytest.raises(concurrent.futures.CancelledError):
            queued.result(timeout=1)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    assert multiprocessing.active_children() == []


def test_pool_shutdown_rejects_new_work():
    pool = CancellableProcessExecutor(max_workers=1)
    pool.submit(divmod, 4, 2).result(timeout=30)
    pool.shutdown(wait=True)
    with pytest.raises(RuntimeError):
        pool.submit(divmod, 1, 1)
    assert multiprocessing.active_children() == []


@pytest.mark.timeout(60)
def test_a_killed_worker_fails_only_its_own_task():
    """Killing one of two running workers fails that worker's task at
    once with :class:`BrokenWorkerError`, while its sibling runs on."""
    pool = CancellableProcessExecutor(max_workers=2)
    futures = [pool.submit(time.sleep, 20) for _ in range(2)]
    try:
        deadline = time.monotonic() + 10
        while len(pool.worker_pids()) < 2:
            assert time.monotonic() < deadline, "workers never spawned"
            time.sleep(0.02)
        time.sleep(0.3)  # let both workers pick their task up
        os.kill(pool.worker_pids()[0], signal.SIGKILL)
        done, running = concurrent.futures.wait(
            futures, timeout=5, return_when=concurrent.futures.FIRST_COMPLETED
        )
        assert len(done) == 1, "the killed worker's task did not fail"
        assert isinstance(done.pop().exception(), BrokenWorkerError)
        assert not running.pop().done()
    finally:
        for future in futures:
            future.cancel()
        pool.shutdown(wait=True, cancel_futures=True)
    assert multiprocessing.active_children() == []


_PRELOAD_PROBE = """
import os, sys
sys.path.insert(0, {src!r})
from repro.engine.process_pool import CancellableProcessExecutor

def pids():
    from repro.engine import process_pool
    return os.getpid(), process_pool._IMPORTED_IN

if __name__ == "__main__":
    with CancellableProcessExecutor(max_workers=1) as pool:
        worker, imported_in = pool.submit(pids).result(timeout=60)
    print(os.getpid(), worker, imported_in)
"""


@pytest.mark.timeout(120)
def test_workers_fork_from_the_preloaded_server(tmp_path):
    """A worker finds the engine already imported — by the server it
    forked from, not by itself — even when the script reaches ``repro``
    only through a runtime ``sys.path`` insert (no ``PYTHONPATH``)."""
    script = tmp_path / "probe.py"
    script.write_text(_PRELOAD_PROBE.format(src=str(SRC)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(script)], env=env, cwd=tmp_path,
        capture_output=True, text=True, timeout=100,
    )
    assert done.returncode == 0, done.stderr
    parent, worker, imported_in = map(int, done.stdout.split())
    assert imported_in not in (parent, worker)


def _mint_a_null(delay: float):
    time.sleep(delay)  # keeps this worker busy while its sibling mints
    return os.getpid(), fresh_null()


@pytest.mark.timeout(60)
def test_sibling_workers_mint_distinct_nulls():
    """Workers fork from one server with one label counter; each must
    still mint nulls its siblings never mint."""
    with CancellableProcessExecutor(max_workers=2) as pool:
        futures = [pool.submit(_mint_a_null, 0.5) for _ in range(2)]
        (pid_a, null_a), (pid_b, null_b) = (f.result(timeout=60) for f in futures)
    assert pid_a != pid_b
    assert null_a != null_b
    assert multiprocessing.active_children() == []


class _SleepyStrategy(EvaluationStrategy):
    """Sleeps far longer than any test waits (module level, so a process
    worker unpickles it by reference)."""

    capabilities = StrategyCapabilities(semantics=("set",))

    def run(self, query, database, *, semantics, **options):
        time.sleep(30)
        return StrategyOutcome(answer=Relation(("a",), [(1,)]))


def _worker_pids(engine: AsyncEngine) -> list[int]:
    executor = engine._pool._executor
    return executor.worker_pids() if executor is not None else []


def test_async_engine_cancellation_reaches_worker_process(tiny_db):
    """End to end: cancelling the await terminates the worker process of
    the default ``"process"`` pool, which respawns it for the next call."""

    register_strategy("test-cancel-sleepy")(_SleepyStrategy)

    async def main():
        async with AsyncEngine(pool="process", max_workers=1) as engine:
            task = asyncio.create_task(
                engine.evaluate("SELECT a FROM R", tiny_db, strategy="test-cancel-sleepy")
            )
            await _wait_for(lambda: _worker_pids(engine), timeout=10)
            await asyncio.sleep(0.3)  # let the worker pick the task up
            before = _worker_pids(engine)
            start = time.monotonic()
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            # A fresh worker serves the next call promptly.
            result = await engine.evaluate("SELECT a FROM R", tiny_db, strategy="naive")
            assert result.relation.sorted_rows() == [(1,), (2,)]
            assert time.monotonic() - start < 20  # did not wait out the sleep
            assert _worker_pids(engine) != before

    try:
        asyncio.run(main())
    finally:
        unregister_strategy("test-cancel-sleepy")
    assert multiprocessing.active_children() == []
