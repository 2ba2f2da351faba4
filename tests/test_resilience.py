"""Unit and integration pins for :mod:`repro.resilience`.

Covers the four primitives (deadlines, retry policies, circuit
breakers, fault injection) in isolation, then their threading through
the engine: ``timeout=`` aborts long evaluations with
:class:`DeadlineExceeded`, ``on_shard_error="degrade"`` returns the
surviving shards' sound subset for monotone fragments (and refuses for
non-monotone plans), transient shard faults are retried with the count
in ``result.metadata["resilience"]``, the per-``(strategy, backend)``
breaker trips ``backend="auto"`` over to the interpreter and recovers
through a half-open probe, and the server maps a blown ``timeout_ms``
to HTTP 504 while ``/healthz`` exposes breaker snapshots.
"""

from __future__ import annotations

import os
import pathlib
import pickle
import time

import pytest

from repro import Database, Engine
from repro.algebra import builder as rb
from repro.algebra.conditions import Attr, Eq
from repro.engine import EngineError, WorkerPool
from repro.engine.registry import register_strategy, unregister_strategy
from repro.engine.strategies import NaiveStrategy
from repro.resilience import (
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    FaultPlan,
    FaultRule,
    InjectedFault,
    RetryPolicy,
    TransientFault,
    active_deadline,
    breaker_for,
    deadline_scope,
    faults_armed,
    reset_breakers,
    resolve_deadline,
    resolve_retry,
)
from repro.sharding import RoundRobinPartitioner


@pytest.fixture(autouse=True)
def _clean_breakers():
    reset_breakers()
    yield
    reset_breakers()


def _database() -> Database:
    return Database.from_dict(
        {
            "R": (("a", "b"), [(i, i + 1) for i in range(12)]),
            "S": (("c",), [(i,) for i in range(0, 12, 2)]),
        }
    )


# ----------------------------------------------------------------------
# Deadline
# ----------------------------------------------------------------------
def test_deadline_expiry_check_and_remaining():
    deadline = Deadline.after(60.0)
    assert not deadline.expired
    assert 0.0 < deadline.remaining() <= 60.0
    expired = Deadline.after(0.0)
    assert expired.expired
    with pytest.raises(DeadlineExceeded, match="deadline"):
        expired.check("unit test")


def test_deadline_is_picklable_and_a_timeout_error():
    deadline = Deadline.after(5.0)
    clone = pickle.loads(pickle.dumps(deadline))
    assert clone == deadline
    assert issubclass(DeadlineExceeded, TimeoutError)
    assert not issubclass(DeadlineExceeded, EngineError)


def test_deadline_scope_nesting_keeps_the_tighter_budget():
    outer = Deadline.after(60.0)
    inner = Deadline.after(1.0)
    with deadline_scope(outer):
        assert active_deadline() == outer
        with deadline_scope(inner):
            assert active_deadline().remaining() <= 1.0
        assert active_deadline() == outer
    assert active_deadline() is None


def test_deadline_ticked_aborts_enumeration():
    deadline = Deadline.after(0.0)
    with pytest.raises(DeadlineExceeded):
        list(deadline.ticked(iter(range(10_000)), every=1))


def test_resolve_deadline_accepts_seconds_and_passthrough():
    assert resolve_deadline(None, None) is None
    deadline = resolve_deadline(2.0, None)
    assert isinstance(deadline, Deadline)
    assert resolve_deadline(deadline, None) is deadline


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
def test_retry_policy_classification():
    policy = RetryPolicy(max_attempts=3)
    assert policy.is_retryable(TransientFault("x"))
    assert policy.is_retryable(ConnectionResetError())
    import sqlite3

    assert policy.is_retryable(sqlite3.OperationalError("locked"))
    assert not policy.is_retryable(ValueError("x"))
    # DeadlineExceeded subclasses TimeoutError/OSError but must never
    # be retried: the budget is gone.
    assert not policy.is_retryable(DeadlineExceeded("over"))


def test_retry_delays_are_deterministic_and_capped():
    policy = RetryPolicy(max_attempts=5, base_delay=0.05, max_delay=0.2, seed=7)
    delays = [policy.delay(attempt) for attempt in range(1, 5)]
    assert delays == [policy.delay(a) for a in range(1, 5)]
    assert all(0.0 <= d <= 0.2 * 1.5 for d in delays)


def test_retry_call_retries_transients_then_succeeds():
    policy = RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0)
    attempts = []

    def flaky():
        attempts.append(1)
        if len(attempts) < 3:
            raise TransientFault("not yet")
        return "done"

    result, retries = policy.call(flaky, sleep=lambda _: None)
    assert result == "done"
    assert retries == 2


def test_resolve_retry_contract():
    assert resolve_retry(False) is None
    assert isinstance(resolve_retry(True), RetryPolicy)
    policy = RetryPolicy(max_attempts=9)
    assert resolve_retry(policy) is policy
    with pytest.raises(TypeError):
        resolve_retry(42)


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------
def test_breaker_trips_cools_down_and_recovers_via_half_open_probe():
    clock = [0.0]
    breaker = CircuitBreaker(
        failure_threshold=2, cooldown=10.0, clock=lambda: clock[0]
    )
    assert breaker.allow()
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == "open"
    assert not breaker.allow()
    clock[0] = 11.0
    assert breaker.state == "half-open"
    assert breaker.allow()  # the single probe slot
    assert not breaker.allow()  # a second concurrent probe is refused
    breaker.record_success()
    assert breaker.state == "closed"
    assert breaker.snapshot()["trips"] == 1


def test_breaker_half_open_failure_reopens():
    clock = [0.0]
    breaker = CircuitBreaker(
        failure_threshold=1, cooldown=5.0, clock=lambda: clock[0]
    )
    breaker.record_failure()
    clock[0] = 6.0
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state == "open"
    assert breaker.snapshot()["trips"] == 2


def test_breaker_release_probe_does_not_leak_the_slot():
    clock = [0.0]
    breaker = CircuitBreaker(
        failure_threshold=1, cooldown=5.0, clock=lambda: clock[0]
    )
    breaker.record_failure()
    clock[0] = 6.0
    assert breaker.allow()
    breaker.release_probe()  # e.g. a capability miss: no health signal
    assert breaker.state == "half-open"
    assert breaker.allow()  # the slot came back


def test_breaker_registry_is_shared_per_pair():
    a = breaker_for("naive", "sqlite")
    assert breaker_for("naive", "sqlite") is a
    assert breaker_for("guagliardo16", "sqlite") is not a


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
def test_fault_plan_is_deterministic_per_seed():
    rule = FaultRule(point="x", probability=0.5)
    decisions_a = [
        FaultPlan([rule], seed=3).decide("x", {}) is not None for _ in range(1)
    ]
    plan_a = FaultPlan([rule], seed=3)
    plan_b = FaultPlan([rule], seed=3)
    seq_a = [plan_a.decide("x", {}) is not None for _ in range(50)]
    seq_b = [plan_b.decide("x", {}) is not None for _ in range(50)]
    assert seq_a == seq_b
    plan_c = FaultPlan([rule], seed=4)
    seq_c = [plan_c.decide("x", {}) is not None for _ in range(50)]
    assert seq_a != seq_c
    assert decisions_a  # seed 3's first draw, pinned by determinism


def test_fault_plan_where_and_max_fires_and_json_round_trip():
    rule = FaultRule(
        point="shard.*", probability=1.0, where={"shard": 0}, max_fires=1
    )
    plan = FaultPlan([rule], seed=1)
    assert plan.decide("shard.task", {"shard": 1}) is None
    assert plan.decide("shard.task", {"shard": 0}) is rule
    assert plan.decide("shard.task", {"shard": 0}) is None  # exhausted
    clone = FaultPlan.from_json(plan.to_json())
    assert clone.seed == plan.seed
    assert clone.rules[0].where == {"shard": 0}


# ----------------------------------------------------------------------
# Engine integration: deadlines
# ----------------------------------------------------------------------
def test_engine_timeout_raises_deadline_exceeded():
    db = _database()
    plan = rb.select(rb.relation("R"), Eq(Attr("a"), Attr("a")))
    engine = Engine()
    with pytest.raises(DeadlineExceeded):
        engine.evaluate(plan, db, timeout=Deadline.after(0.0), use_cache=False)
    # The same call with room to breathe succeeds.
    result = engine.evaluate(plan, db, timeout=30.0, use_cache=False)
    assert len(result.relation) == 12


@pytest.mark.parametrize("timeout", [-1.0, float("nan")])
def test_engine_rejects_negative_and_nan_timeouts(timeout):
    # NaN compares false against everything: unchecked, it never expired
    # monolithically and expired at once on a sharded fan-out.
    from repro.sharding import ShardedDatabase

    db = _database()
    engine = Engine()
    for target in (db, ShardedDatabase.from_database(db, 2)):
        with pytest.raises(ValueError, match="non-negative"):
            engine.evaluate(rb.relation("R"), target, timeout=timeout, use_cache=False)


def test_compare_shares_one_deadline():
    db = _database()
    plan = rb.relation("R")
    engine = Engine()
    with pytest.raises(DeadlineExceeded):
        engine.compare(plan, db, timeout=Deadline.after(0.0), use_cache=False)


def test_session_and_engine_accept_default_timeout():
    engine = Engine(timeout=30.0, on_shard_error="degrade", retry=True)
    described = engine.describe()["defaults"]
    assert described["timeout"] == 30.0
    assert described["on_shard_error"] == "degrade"
    with pytest.raises(EngineError):
        Engine(on_shard_error="explode")


def test_deadline_never_poisons_the_cache():
    db = _database()
    plan = rb.relation("R")
    engine = Engine()
    with pytest.raises(DeadlineExceeded):
        engine.evaluate(plan, db, timeout=Deadline.after(0.0))
    result = engine.evaluate(plan, db)
    assert not result.from_cache  # the aborted run cached nothing
    assert len(result.relation) == 12


@pytest.mark.parametrize("twin", ["Engine", "AsyncEngine"])
def test_expired_deadline_fails_admission_even_on_a_cache_hit(twin):
    # Admission happens while the call is prepared, before the cache
    # probe, on both engines: an already-cached key is no way around a
    # budget that is already gone.
    import asyncio

    from repro import AsyncEngine

    db = _database()
    plan = rb.relation("R")
    engine = Engine()
    assert not engine.evaluate(plan, db).from_cache
    assert engine.evaluate(plan, db).from_cache

    async def evaluate_async():
        async with AsyncEngine(engine=engine, pool="serial") as aengine:
            return await aengine.evaluate(plan, db, timeout=Deadline.after(0.0))

    with pytest.raises(DeadlineExceeded):
        if twin == "Engine":
            engine.evaluate(plan, db, timeout=Deadline.after(0.0))
        else:
            asyncio.run(evaluate_async())


# ----------------------------------------------------------------------
# Engine integration: shard retry and degrade
# ----------------------------------------------------------------------
def _cq_plan():
    return rb.project(
        rb.select(rb.relation("R"), Eq(Attr("a"), Attr("a"))), ["a"]
    )


def test_transient_shard_fault_is_retried_and_counted():
    db = _database()
    plan = _cq_plan()
    engine = Engine(shards=2, executor="serial")
    fault = FaultPlan(
        [FaultRule(point="shard.task", probability=1.0, max_fires=1)], seed=0
    )
    reference = engine.evaluate(plan, db, use_cache=False)
    with faults_armed(fault):
        result = engine.evaluate(
            plan,
            db,
            use_cache=False,
            on_shard_error="retry",
            retry=RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0),
        )
    assert result.metadata["resilience"]["retries"] == 1
    assert result.relation.rows_bag() == reference.relation.rows_bag()


def test_degrade_returns_sound_subset_with_metadata():
    db = _database()
    plan = _cq_plan()
    engine = Engine(shards=2, executor="serial")
    reference = engine.evaluate(plan, db, use_cache=False)
    fault = FaultPlan(
        [
            FaultRule(
                point="shard.task",
                probability=1.0,
                error="fatal",
                where={"shard": 0},
            )
        ],
        seed=0,
    )
    with faults_armed(fault):
        result = engine.evaluate(
            plan, db, use_cache=False, on_shard_error="degrade", retry=False
        )
    degraded = result.metadata["degraded"]
    assert degraded["failed_shards"] == [0]
    assert degraded["guarantee"] == "sound-subset"
    assert result.certain.rows_set() <= reference.certain.rows_set()
    assert result.metadata.get("exact") is not True


def test_degrade_refuses_non_monotone_fragments():
    # σ_{a<b}(R) distributes over shards but classifies as FO (order
    # comparison), so degradation has no soundness guarantee there.
    from repro.algebra.conditions import Lt

    db = _database()
    plan = rb.select(rb.relation("R"), Lt(Attr("a"), Attr("b")))
    engine = Engine(shards=2, executor="serial")
    fault = FaultPlan(
        [FaultRule(point="shard.task", probability=1.0, error="fatal")], seed=0
    )
    with faults_armed(fault):
        with pytest.raises(EngineError, match="not monotone"):
            engine.evaluate(
                plan, db, use_cache=False, on_shard_error="degrade", retry=False
            )


def test_every_shard_failing_raises_even_under_degrade():
    db = _database()
    plan = _cq_plan()
    engine = Engine(shards=2, executor="serial")
    fault = FaultPlan(
        [FaultRule(point="shard.task", probability=1.0, error="fatal")], seed=0
    )
    with faults_armed(fault):
        with pytest.raises(EngineError, match="every shard failed"):
            engine.evaluate(
                plan, db, use_cache=False, on_shard_error="degrade", retry=False
            )


# ----------------------------------------------------------------------
# Engine integration: the process pool's failure modes
# ----------------------------------------------------------------------
def _is_shard_zero(database: Database) -> bool:
    """Round-robin sends R's first row (a = 0) to shard 0."""
    return any(row[0] == 0 for _, relation in database.relations() for row in relation.rows_set())


class _FailShardZero(NaiveStrategy):
    """Shard 0 fails at once; any other shard sleeps, then writes the
    ``marker`` file — unless it is cancelled first."""

    def run(self, query, database, *, marker, **kwargs):
        if _is_shard_zero(database):
            raise RuntimeError("shard 0 is down")
        time.sleep(1.5)
        pathlib.Path(marker).write_text("the cancelled sibling ran to its end")
        return super().run(query, database, **kwargs)


class _CrashOnce(NaiveStrategy):
    """The first run, the one that creates the ``marker`` file, kills its
    worker process; every later run is plain naïve evaluation."""

    def run(self, query, database, *, marker, **kwargs):
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return super().run(query, database, **kwargs)
        os._exit(3)


@pytest.fixture
def scripted_strategy():
    """Register one of the scripted naïve strategies above.  They live at
    module level, so a process worker unpickles them by reference."""
    name = "test-scripted-naive"

    def register(cls):
        register_strategy(name)(cls)
        return name

    yield register
    unregister_strategy(name)


@pytest.mark.timeout(60)
def test_failed_shard_terminates_its_running_sibling(tmp_path, scripted_strategy):
    """Under ``"raise"`` a failed shard cancels its siblings, and on the
    process pool that terminates a sibling already running."""
    marker = tmp_path / "sibling-finished"
    strategy = scripted_strategy(_FailShardZero)
    with Engine(shards=2, partitioner=RoundRobinPartitioner(), executor="process") as engine:
        with pytest.raises(RuntimeError, match="shard 0 is down"):
            engine.evaluate(
                _cq_plan(), _database(), strategy=strategy, use_cache=False,
                on_shard_error="raise", marker=str(marker),
            )
        time.sleep(2.5)
    assert not marker.exists()


@pytest.mark.timeout(60)
def test_dead_worker_costs_one_retry(tmp_path, scripted_strategy):
    """A worker that dies fails only its own task: one retry, and the
    siblings' results stand."""
    marker = tmp_path / "crashed-once"
    strategy = scripted_strategy(_CrashOnce)
    db = _database()
    monolithic = Engine().evaluate(_cq_plan(), db, strategy="naive", use_cache=False)
    with Engine(shards=3, executor="process") as engine:
        result = engine.evaluate(
            _cq_plan(), db, strategy=strategy, use_cache=False, on_shard_error="retry",
            retry=RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0),
            marker=str(marker),
        )
    assert marker.exists(), "no worker crashed"
    assert result.metadata["sharding"]["mode"] == "distributed"
    assert result.relation.rows_bag() == monolithic.relation.rows_bag()
    assert result.metadata["resilience"]["retries"] == 1


@pytest.mark.timeout(60)
def test_fault_plan_follows_tasks_into_a_warm_process_worker():
    """A worker started before arming still fires the plan (it rides on
    the task), and stops firing once the plan is disarmed."""
    db = _database()
    plan = _cq_plan()
    fault = FaultPlan(
        [FaultRule(point="shard.task", error="fatal", where={"shard": 1})], seed=0
    )
    pool = WorkerPool("process", 1)
    try:
        with Engine(shards=2, executor=pool) as engine:
            reference = engine.evaluate(plan, db, use_cache=False)  # warms the worker
            with faults_armed(fault):
                with pytest.raises(InjectedFault):
                    engine.evaluate(
                        plan, db, use_cache=False, on_shard_error="raise", retry=False
                    )
            again = engine.evaluate(plan, db, use_cache=False, retry=False)
        assert again.relation.rows_bag() == reference.relation.rows_bag()
    finally:
        pool.close()


# ----------------------------------------------------------------------
# Circuit breaker through the auto backend
# ----------------------------------------------------------------------
@pytest.mark.timeout(60)
def test_breaker_trips_auto_to_interpreter_and_recovers():
    db = _database()
    plan = rb.select(rb.relation("R"), Eq(Attr("a"), Attr("a")))
    clock = [0.0]
    breaker = breaker_for(
        "naive", "sqlite", failure_threshold=2, cooldown=30.0, clock=lambda: clock[0]
    )
    engine = Engine()
    fault = FaultPlan(
        [FaultRule(point="sqlite.run", probability=1.0, error="operational")],
        seed=0,
    )
    with faults_armed(fault):
        for _ in range(2):
            result = engine.evaluate(
                plan, db, strategy="naive", backend="auto", use_cache=False
            )
            assert result.metadata["backend"]["resolved"] == "interpreter"
    assert breaker.state == "open"
    # While open, auto never touches SQLite — no faults needed to pass.
    result = engine.evaluate(
        plan, db, strategy="naive", backend="auto", use_cache=False
    )
    assert "circuit breaker is open" in result.metadata["backend"]["reason"]
    # After the cool-down, the half-open probe succeeds and closes it.
    clock[0] = 31.0
    result = engine.evaluate(
        plan, db, strategy="naive", backend="auto", use_cache=False
    )
    assert result.metadata["backend"]["resolved"] == "sqlite"
    assert breaker.state == "closed"
    assert breaker.snapshot()["trips"] == 1


# ----------------------------------------------------------------------
# Server: timeout_ms → 504, /healthz breakers
# ----------------------------------------------------------------------
@pytest.mark.timeout(120)
def test_server_timeout_ms_maps_to_504_and_healthz_exposes_breakers():
    from repro.server import serve
    from repro.server.client import ServerClient, ServerTimeoutError

    db = _database()
    with serve(pool="thread", datasets={"toy": db}) as server:
        host, port = server.address
        with ServerClient(host, port) as client:
            ok = client.query("SELECT a FROM R", db="toy", timeout_ms=30_000)
            assert ok["result"]["strategy"]
            with pytest.raises(ServerTimeoutError):
                client.query(
                    "SELECT r1.a FROM R r1, R r2, R r3 WHERE r1.a = r3.b",
                    db="toy",
                    strategy="exact-certain",
                    timeout_ms=0.001,
                    use_cache=False,
                )
            health = client.healthz()
            assert health["status"] == "ok"
            assert isinstance(health["breakers"], dict)
            outcomes = client.stats()["requests"]
            assert outcomes.get("deadline") == 1
