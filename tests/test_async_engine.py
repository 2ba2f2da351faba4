"""Unit tests of :mod:`repro.engine.aio`: AsyncEngine and AsyncSession.

The async-vs-sync *result* equivalence lives in
``tests/test_differential.py`` (the ``driver`` axis) and
``tests/test_async_equivalence.py``; this module checks the async
machinery itself — genuine concurrency of ``compare``/``evaluate_batch``
fan-out, the ``max_concurrency`` semaphore, single-flight coalescing of
identical in-flight evaluations, cache sharing with the sync twin, error
propagation out of workers, and engine/session lifecycle.

Custom strategies defined inside the tests here run on the ``thread``
pool (a process worker can only unpickle an importable strategy); the
process pool is exercised with the built-in strategies in the
equivalence harness and in E14.
"""

from __future__ import annotations

import asyncio
import pathlib
import subprocess
import sys
import threading
import time

import pytest

from repro import AsyncEngine, AsyncSession, Database, Engine, Relation, Session
from repro.engine import (
    EngineError,
    EvaluationStrategy,
    StrategyCapabilities,
    StrategyNotApplicableError,
    StrategyOutcome,
    WorkerPool,
    register_strategy,
    unregister_strategy,
)
from repro.server import EvalServer, ServerConfig
from repro.sharding import ShardedDatabase


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def tiny_db() -> Database:
    return Database.from_dict({"R": (("a",), [(1,), (2,)])})


def _answer() -> StrategyOutcome:
    return StrategyOutcome(answer=Relation(("a",), [(1,)]))


# ----------------------------------------------------------------------
# Basic contract
# ----------------------------------------------------------------------
def test_async_evaluate_matches_sync(tiny_db):
    async def main():
        async with AsyncEngine(pool="serial") as engine:
            result = await engine.evaluate(
                "SELECT a FROM R", tiny_db, strategy="naive"
            )
            return result

    result = asyncio.run(main())
    with Engine() as sync_engine:
        expected = sync_engine.evaluate(
            "SELECT a FROM R", tiny_db, strategy="naive"
        )
    assert result.same_answers_as(expected)
    assert result.strategy == "naive"
    assert not result.from_cache


def test_async_engine_rejects_bad_configuration(tiny_db):
    # pool=, executor= and ServerConfig.pool share one kind table, so an
    # unknown name fails at construction with one message.
    bad_pools = {
        "pool": lambda: AsyncEngine(pool="quantum"),
        "Engine(executor=)": lambda: Engine(executor="quantum"),
        "Session(executor=)": lambda: Session(tiny_db, executor="quantum"),
        "AsyncSession(executor=)": lambda: AsyncSession(tiny_db, executor="quantum"),
        "ServerConfig.pool": lambda: EvalServer(ServerConfig(pool="quantum")),
    }
    messages = set()
    for name, build in bad_pools.items():
        with pytest.raises(EngineError, match="worker pool") as excinfo:
            build()
        messages.add(str(excinfo.value))
    assert messages == {
        "unknown worker pool 'quantum'; expected one of ('serial', 'thread', "
        "'process') or a WorkerPool instance"
    }
    with pytest.raises(EngineError, match="worker pool"):
        Engine().evaluate("SELECT a FROM R", tiny_db, executor="quantum")
    with pytest.raises(EngineError, match="max_concurrency"):
        AsyncEngine(max_concurrency=0)


def test_unsupported_semantics_raises_before_dispatch(tiny_db):
    async def main():
        async with AsyncEngine(pool="serial") as engine:
            with pytest.raises(StrategyNotApplicableError):
                await engine.evaluate(
                    "SELECT a FROM R", tiny_db,
                    strategy="exact-certain", semantics="bag",
                )
            with pytest.raises(EngineError, match="unknown semantics"):
                await engine.evaluate(
                    "SELECT a FROM R", tiny_db, semantics="fuzzy"
                )

    asyncio.run(main())


def test_evaluate_batch_preserves_input_order(tiny_db):
    queries = [f"SELECT a FROM R WHERE a = {i}" for i in (2, 1, 2, 1)]

    async def main():
        async with AsyncEngine(pool="thread", max_workers=4) as engine:
            return await engine.evaluate_batch(queries, tiny_db, strategy="naive")

    results = asyncio.run(main())
    assert [sorted(r.rows_set()) for r in results] == [
        [(2,)], [(1,)], [(2,)], [(1,)]
    ]


# ----------------------------------------------------------------------
# Genuine concurrency
# ----------------------------------------------------------------------
def test_compare_runs_strategies_concurrently(tiny_db):
    # Both strategies block on one barrier: the comparison only finishes
    # if their runs are in flight at the same time (serial execution
    # would deadlock until the barrier timeout).
    barrier = threading.Barrier(2, timeout=10)

    for name in ("test-conc-a", "test-conc-b"):

        @register_strategy(name)
        class _BarrierStrategy(EvaluationStrategy):
            capabilities = StrategyCapabilities(semantics=("set",))

            def run(self, query, database, *, semantics, **options):
                barrier.wait()
                return _answer()

    try:

        async def main():
            async with AsyncEngine(pool="thread", max_workers=2) as engine:
                return await engine.compare(
                    "SELECT a FROM R",
                    tiny_db,
                    strategies=("test-conc-a", "test-conc-b"),
                )

        results = asyncio.run(main())
        assert set(results) == {"test-conc-a", "test-conc-b"}
    finally:
        unregister_strategy("test-conc-a")
        unregister_strategy("test-conc-b")


def test_max_concurrency_bounds_in_flight_dispatches(tiny_db):
    in_flight = 0
    high_water = 0
    lock = threading.Lock()

    @register_strategy("test-gauge")
    class _GaugeStrategy(EvaluationStrategy):
        capabilities = StrategyCapabilities(semantics=("set",))

        def run(self, query, database, *, semantics, **options):
            nonlocal in_flight, high_water
            with lock:
                in_flight += 1
                high_water = max(high_water, in_flight)
            time.sleep(0.05)
            with lock:
                in_flight -= 1
            return _answer()

    try:
        queries = [f"SELECT a FROM R WHERE a = {i}" for i in range(6)]

        async def main():
            async with AsyncEngine(
                pool="thread", max_workers=6, max_concurrency=2
            ) as engine:
                await engine.evaluate_batch(
                    queries, tiny_db, strategy="test-gauge", use_cache=False
                )

        asyncio.run(main())
        assert high_water <= 2, f"semaphore leaked: {high_water} in flight"
        assert high_water >= 1
    finally:
        unregister_strategy("test-gauge")


# ----------------------------------------------------------------------
# Single-flight and cache sharing
# ----------------------------------------------------------------------
def test_identical_inflight_evaluations_coalesce(tiny_db):
    calls = []

    @register_strategy("test-slow")
    class _SlowStrategy(EvaluationStrategy):
        capabilities = StrategyCapabilities(semantics=("set",))

        def run(self, query, database, *, semantics, **options):
            calls.append(1)
            time.sleep(0.1)
            return _answer()

    try:

        async def main():
            async with AsyncEngine(pool="thread", max_workers=4) as engine:
                return await asyncio.gather(
                    *(
                        engine.evaluate(
                            "SELECT a FROM R", tiny_db, strategy="test-slow"
                        )
                        for _ in range(4)
                    )
                )

        results = asyncio.run(main())
        assert len(calls) == 1, "identical in-flight evaluations must coalesce"
        assert sum(not r.from_cache for r in results) == 1
        assert sum(r.from_cache for r in results) == 3
        for r in results:
            assert r.rows_set() == {(1,)}
    finally:
        unregister_strategy("test-slow")


def test_async_and_sync_twins_share_one_cache(tiny_db):
    with Engine() as sync_engine:
        warm = sync_engine.evaluate("SELECT a FROM R", tiny_db, strategy="naive")
        assert not warm.from_cache

        async def main():
            async with AsyncEngine(engine=sync_engine, pool="serial") as aeng:
                return await aeng.evaluate(
                    "SELECT a FROM R", tiny_db, strategy="naive"
                )

        result = asyncio.run(main())
        assert result.from_cache, "the async twin must hit the sync twin's cache"
        # ... and the other direction.
        sync_engine.clear_cache()

        async def refill():
            async with AsyncEngine(engine=sync_engine, pool="serial") as aeng:
                await aeng.evaluate("SELECT a FROM R", tiny_db, strategy="naive")

        asyncio.run(refill())
        again = sync_engine.evaluate("SELECT a FROM R", tiny_db, strategy="naive")
        assert again.from_cache


# ----------------------------------------------------------------------
# Error propagation
# ----------------------------------------------------------------------
def test_worker_errors_propagate(tiny_db):
    async def main():
        async with AsyncEngine(pool="thread") as engine:
            # naive rejects unknown options inside the worker.
            with pytest.raises(EngineError, match="does not understand"):
                await engine.evaluate(
                    "SELECT a FROM R", tiny_db, strategy="naive",
                    use_cache=False, bogus=1,
                )

    asyncio.run(main())


def test_compare_skip_inapplicable(tiny_db):
    # An algebra query has no SQL AST, so sql-3vl is inapplicable.
    from repro import builder as rb

    query = rb.relation("R")

    async def main():
        async with AsyncEngine(pool="thread") as engine:
            results = await engine.compare(query, tiny_db)
            assert "sql-3vl" not in results
            assert "naive" in results
            with pytest.raises(StrategyNotApplicableError):
                await engine.compare(
                    query, tiny_db,
                    strategies=("sql-3vl",), skip_inapplicable=False,
                )

    asyncio.run(main())


_NULL_PROBE = """
import asyncio, sys
sys.path.insert(0, {src!r})
from repro import AsyncEngine, Database, Engine, Null

QUERY = "SELECT r.a FROM r UNION SELECT NULL FROM s"

async def main():
    async with AsyncEngine(pool="process", max_workers=1) as engine:
        warm = Database.from_dict({{"s": (("b",), [(1,)])}})
        await engine.evaluate("SELECT b FROM s", warm, strategy="naive")
        db = Database.from_dict({{
            "r": (("a",), [(Null(),) for _ in range(4)] + [(1,)]),
            "s": (("b",), [(1,)]),
        }})
        worker = await engine.evaluate(QUERY, db, strategy="sql-3vl")
    local = Engine().evaluate(QUERY, db, strategy="sql-3vl")
    print(len(worker.relation), len(local.relation))

if __name__ == "__main__":
    asyncio.run(main())
"""


@pytest.mark.timeout(120)
def test_a_null_minted_in_a_worker_is_fresh_in_the_parent(tmp_path):
    """SQL's ``NULL`` literal mints a fresh null (the SQL-evaluator
    fallback); minted in a process worker it must not repeat the label
    of a null the parent built.  Run in a fresh interpreter, where the
    parent's first nulls carry the labels a worker's counter starts at."""
    script = tmp_path / "probe.py"
    script.write_text(_NULL_PROBE.format(src=str(SRC)))
    done = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path,
        capture_output=True, text=True, timeout=100,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["6", "6"]


# ----------------------------------------------------------------------
# Sharding through the async path
# ----------------------------------------------------------------------
def test_async_sharded_evaluation_is_distributed_and_correct(tiny_db):
    db = Database.from_dict(
        {"R": (("a", "b"), [(i, i % 3) for i in range(12)])}
    )
    from repro import builder as rb

    query = rb.select(rb.relation("R"), rb.eq("b", 1))
    sharded = ShardedDatabase.from_database(db, 3)

    async def main():
        async with AsyncEngine(pool="serial") as engine:
            return await engine.evaluate(
                query, sharded, strategy="naive", executor="thread"
            )

    result = asyncio.run(main())
    assert result.metadata["sharding"]["mode"] == "distributed"
    with Engine() as sync_engine:
        expected = sync_engine.evaluate(query, db, strategy="naive")
    assert result.same_answers_as(expected)


def test_async_sharded_partial_cache_invalidation():
    db = Database.from_dict(
        {"R": (("a", "b"), [(i, i % 3) for i in range(12)])}
    )
    from repro import builder as rb

    query = rb.select(rb.relation("R"), rb.eq("b", 1))
    sharded = ShardedDatabase.from_database(db, 4)

    async def main():
        async with AsyncEngine(pool="serial") as engine:
            warm = await engine.evaluate(query, sharded, strategy="naive")
            assert warm.metadata["sharding"]["partial_cache_hits"] == 0
            mutated = sharded.add_rows("R", [(99, 1)])
            fresh = await engine.evaluate(query, mutated, strategy="naive")
            return fresh

    fresh = asyncio.run(main())
    assert fresh.metadata["sharding"]["partial_cache_hits"] == 3
    assert (99, 1) in fresh.rows_set()


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
class _RecordingExecutor:
    kind = "recording"

    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True


def test_async_engine_closes_owned_engine_and_pool(tiny_db):
    recording = _RecordingExecutor()

    async def main():
        engine = AsyncEngine(pool="thread")
        engine.engine._executors["fake"] = recording
        await engine.evaluate("SELECT a FROM R", tiny_db, strategy="naive")
        await engine.aclose()
        return engine

    engine = asyncio.run(main())
    assert recording.closed
    assert engine._pool._executor is None, "the owned worker pool must be shut down"


def test_async_engine_never_closes_a_borrowed_pool(tiny_db):
    pool = WorkerPool("thread", 1)

    async def main():
        async with AsyncEngine(pool=pool) as engine:
            await engine.evaluate("SELECT a FROM R", tiny_db, strategy="naive")

    try:
        asyncio.run(main())
        assert pool._executor is not None, "a borrowed pool must survive aclose"
    finally:
        pool.close()


def test_async_engine_never_closes_a_shared_sync_engine(tiny_db):
    recording = _RecordingExecutor()
    with Engine() as sync_engine:
        sync_engine._executors["fake"] = recording

        async def main():
            async with AsyncEngine(engine=sync_engine, pool="serial") as aeng:
                await aeng.evaluate("SELECT a FROM R", tiny_db, strategy="naive")

        asyncio.run(main())
        assert not recording.closed, "a shared sync engine must survive aclose"
    assert recording.closed


def test_async_session_lifecycle_and_shared_engine(tiny_db):
    async def main():
        engine = AsyncEngine(pool="serial")
        async with AsyncSession(tiny_db, engine=engine) as session:
            result = await session.naive("SELECT a FROM R")
            assert result.rows_set() == {(1,), (2,)}
        # The shared engine survives session exit and keeps working.
        after = await engine.evaluate("SELECT a FROM R", tiny_db)
        assert after.from_cache, "session results must land in the shared cache"
        await engine.aclose()

        # An owned engine is closed by session exit.
        recording = _RecordingExecutor()
        async with AsyncSession(tiny_db, pool="serial") as owned:
            owned.engine.engine._executors["fake"] = recording
        assert recording.closed

    asyncio.run(main())


def test_async_session_with_database_shares_engine(tiny_db):
    other = Database.from_dict({"R": (("a",), [(7,)])})

    async def main():
        async with AsyncSession(tiny_db, pool="serial") as session:
            child = session.with_database(other)
            result = await child.naive("SELECT a FROM R")
            assert result.rows_set() == {(7,)}
            assert child.engine is session.engine

    asyncio.run(main())


def test_async_engine_survives_successive_event_loops(tiny_db):
    engine = AsyncEngine(pool="thread", max_concurrency=2)

    async def one_loop():
        return await engine.evaluate("SELECT a FROM R", tiny_db, strategy="naive")

    first = asyncio.run(one_loop())
    second = asyncio.run(one_loop())
    assert not first.from_cache
    assert second.from_cache
    engine.close()
