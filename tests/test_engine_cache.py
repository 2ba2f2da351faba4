"""Correctness of the result cache: keys, locking, stats, lifecycle.

Regression tests for three latent bugs exposed by the concurrent engine
work:

* **Unstable cache keys** — option values used to be rendered with bare
  ``repr``; a custom object rendered its *address* (identical calls
  never hit, and address reuse could alias two different objects into a
  false hit).  Keys now go through
  :func:`repro.engine.cache.canonical_option_value`, which refuses
  values it cannot render stably.
* **Unsynchronised LRU** — the memory cache mutated an ``OrderedDict``
  and counters without a lock; hammering it from many threads corrupted
  the LRU order or lost updates.
* **Stats surviving ``clear()``** — ``hit_rate`` after a reset reported
  the previous workload.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro import Database, Engine, Relation, Session
from repro.engine import (
    EngineError,
    EvaluationStrategy,
    MemoryCacheBackend,
    StrategyCapabilities,
    StrategyOutcome,
    canonical_option_value,
    canonical_options,
    get_strategy,
    register_strategy,
    unregister_strategy,
)


@pytest.fixture
def tiny_db() -> Database:
    return Database.from_dict({"R": (("a",), [(1,), (2,)])})


@pytest.fixture
def option_strategy():
    """A registered strategy that accepts (and ignores) arbitrary options."""

    calls = []

    @register_strategy("test-options")
    class _OptionStrategy(EvaluationStrategy):
        capabilities = StrategyCapabilities(semantics=("set",))

        def run(self, query, database, *, semantics, **options):
            calls.append(dict(options))
            answer = Relation(("a",), [(1,)])
            return StrategyOutcome(answer=answer)

    yield calls
    unregister_strategy("test-options")


# ----------------------------------------------------------------------
# Cache keys: canonical option rendering
# ----------------------------------------------------------------------
class _Opaque:
    """A custom option object with the default address-bearing repr."""


def test_equal_dict_options_hit_regardless_of_insertion_order(
    tiny_db, option_strategy
):
    # repr({"a": 1, "b": 2}) != repr({"b": 2, "a": 1}) even though the
    # dicts are equal — the old repr-based key missed on the second call.
    engine = Engine()
    query = "SELECT a FROM R"
    first = engine.evaluate(
        query, tiny_db, strategy="test-options", payload={"a": 1, "b": 2}
    )
    second = engine.evaluate(
        query, tiny_db, strategy="test-options", payload={"b": 2, "a": 1}
    )
    assert not first.from_cache
    assert second.from_cache, "equal-content option dicts must share a cache key"
    assert len(option_strategy) == 1


def test_custom_object_option_raises_instead_of_unstable_key(
    tiny_db, option_strategy
):
    # The old key rendered '<_Opaque object at 0x...>': identical calls
    # never hit, and after address reuse two different objects could
    # collide into a false hit.  Canonicalization refuses such values.
    engine = Engine()
    with pytest.raises(EngineError, match="stable cache key"):
        engine.evaluate(
            "SELECT a FROM R", tiny_db, strategy="test-options", knob=_Opaque()
        )


def test_custom_object_option_allowed_when_cache_bypassed(
    tiny_db, option_strategy
):
    engine = Engine()
    result = engine.evaluate(
        "SELECT a FROM R",
        tiny_db,
        strategy="test-options",
        use_cache=False,
        knob=_Opaque(),
    )
    assert not result.from_cache
    assert len(option_strategy) == 1


def test_cache_bypass_escape_hatch_works_on_the_sharded_path(tiny_db):
    # The sharded planner builds per-shard cache keys from the options;
    # with use_cache=False it must not canonicalize them at all, or the
    # escape hatch the EngineError message recommends would not exist
    # for shard-aware strategies.
    from repro import builder as rb, evaluate_algebra
    from repro.sharding import ShardedDatabase

    calls = []

    @register_strategy("test-shard-options")
    class _ShardOptionStrategy(EvaluationStrategy):
        capabilities = StrategyCapabilities(
            semantics=("set",),
            shardable_ops=get_strategy("naive").capabilities.ops_for("set"),
        )

        def run(self, query, database, *, semantics, **options):
            calls.append(dict(options))
            # Shard workers see the rewritten plan over renamed
            # fragment relations — evaluate it, don't index by name.
            return StrategyOutcome(answer=evaluate_algebra(query.algebra, database))

    try:
        sharded = ShardedDatabase.from_database(tiny_db, 2)
        engine = Engine()
        result = engine.evaluate(
            rb.relation("R"),
            sharded,
            strategy="test-shard-options",
            use_cache=False,
            knob=_Opaque(),
        )
        assert result.metadata["sharding"]["mode"] == "distributed"
        assert all("knob" in c for c in calls)
    finally:
        unregister_strategy("test-shard-options")


def test_unknown_strategy_error_survives_pickling(tiny_db):
    # run_task resolves strategies by name inside worker processes; the
    # error must unpickle cleanly in the parent or the failure breaks
    # the whole process pool.
    import pickle

    from repro.engine import UnknownStrategyError

    engine = Engine()
    with pytest.raises(UnknownStrategyError) as excinfo:
        engine.evaluate("SELECT a FROM R", tiny_db, strategy="no-such")
    roundtripped = pickle.loads(pickle.dumps(excinfo.value))
    assert isinstance(roundtripped, UnknownStrategyError)
    assert roundtripped.name == "no-such"
    assert roundtripped.available == excinfo.value.available
    assert "no-such" in str(roundtripped)


def test_canonical_option_value_distinguishes_types_and_shapes():
    assert canonical_option_value(1) != canonical_option_value("1")
    assert canonical_option_value(True) != canonical_option_value(1)
    assert canonical_option_value([1, 2]) != canonical_option_value([2, 1])
    assert canonical_option_value({1, 2}) == canonical_option_value({2, 1})
    assert canonical_option_value({"a": 1, "b": 2}) == canonical_option_value(
        {"b": 2, "a": 1}
    )
    assert canonical_options({"x": (1, "1")}) == canonical_options({"x": (1, "1")})
    with pytest.raises(EngineError):
        canonical_option_value(object())
    with pytest.raises(EngineError):
        canonical_option_value({"nested": object()})


# ----------------------------------------------------------------------
# Locking: the hammer
# ----------------------------------------------------------------------
def test_result_cache_survives_concurrent_hammering():
    cache = MemoryCacheBackend(max_size=32)
    threads = 8
    ops = 2000
    errors: list[BaseException] = []
    gets_per_thread = [0] * threads

    def hammer(thread_index: int) -> None:
        rng = random.Random(thread_index)
        try:
            for op in range(ops):
                key = ("k", rng.randrange(64))
                if rng.random() < 0.5:
                    cache.put(key, ("value", thread_index, op))
                else:
                    cache.get(key)
                    gets_per_thread[thread_index] += 1
                if rng.random() < 0.005:
                    cache.clear()
        except BaseException as exc:  # pragma: no cover - the failure mode
            errors.append(exc)

    workers = [
        threading.Thread(target=hammer, args=(i,)) for i in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()

    assert not errors, f"concurrent cache access raised: {errors[:3]}"
    # Every get incremented exactly one counter; clears moved counts to
    # the lifetime accumulators without losing any.
    lifetime = cache.lifetime_stats
    assert lifetime.hits + lifetime.misses == sum(gets_per_thread)
    assert len(cache) <= 32


def test_shared_engine_hammered_from_many_threads(tiny_db, option_strategy):
    engine = Engine(cache_size=8)
    queries = [f"SELECT a FROM R WHERE a = {i}" for i in range(6)]
    errors: list[BaseException] = []

    def worker(seed: int) -> None:
        rng = random.Random(seed)
        try:
            for _ in range(50):
                engine.evaluate(
                    rng.choice(queries), tiny_db, strategy="test-options"
                )
        except BaseException as exc:  # pragma: no cover - the failure mode
            errors.append(exc)

    workers = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()

    assert not errors, f"shared engine raised under concurrency: {errors[:3]}"
    stats = engine.cache_stats
    assert stats.hits + stats.misses == 6 * 50


# ----------------------------------------------------------------------
# Stats reset on clear
# ----------------------------------------------------------------------
def test_clear_resets_epoch_stats_and_keeps_lifetime():
    cache = MemoryCacheBackend(max_size=4)
    cache.get("missing")            # miss
    cache.put("present", 1)
    cache.get("present")            # hit
    before = cache.stats
    assert (before.hits, before.misses) == (1, 1)

    cache.clear()
    after = cache.stats
    assert (after.hits, after.misses, after.size) == (0, 0, 0)
    assert after.hit_rate == 0.0, "hit_rate after clear must not report the past"

    lifetime = cache.lifetime_stats
    assert (lifetime.hits, lifetime.misses) == (1, 1)

    cache.get("missing-again")      # second epoch
    assert cache.stats.misses == 1
    assert cache.lifetime_stats.misses == 2


def test_engine_clear_cache_resets_hit_rate(tiny_db, option_strategy):
    engine = Engine()
    engine.evaluate("SELECT a FROM R", tiny_db, strategy="test-options")
    engine.evaluate("SELECT a FROM R", tiny_db, strategy="test-options")
    assert engine.cache_stats.hits == 1
    engine.clear_cache()
    assert engine.cache_stats.hits == 0
    assert engine.cache_stats.hit_rate == 0.0


# ----------------------------------------------------------------------
# Session lifecycle
# ----------------------------------------------------------------------
class _RecordingExecutor:
    kind = "recording"

    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True


def test_session_context_manager_closes_owned_engine(tiny_db):
    recording = _RecordingExecutor()
    with Session(tiny_db) as session:
        session.engine._executors["fake"] = recording
    assert recording.closed, "session exit must close the engine it created"
    assert session.engine._executors == {}


def test_shared_engine_survives_session_exit(tiny_db):
    recording = _RecordingExecutor()
    engine = Engine()
    engine._executors["fake"] = recording
    with Session(tiny_db, engine=engine) as session:
        session.evaluate("SELECT a FROM R", strategy="naive")
    assert not recording.closed, "a shared engine must survive session exit"
    # ... and is still usable afterwards.
    result = engine.evaluate("SELECT a FROM R", tiny_db, strategy="naive")
    assert result.rows_set()
    engine.close()
    assert recording.closed


def test_with_database_sessions_do_not_close_the_parent_engine(tiny_db):
    recording = _RecordingExecutor()
    with Session(tiny_db) as parent:
        parent.engine._executors["fake"] = recording
        other = Database.from_dict({"R": (("a",), [(3,)])})
        with parent.with_database(other) as child:
            child.evaluate("SELECT a FROM R", strategy="naive")
        assert not recording.closed, "derived sessions share the parent engine"
    assert recording.closed
