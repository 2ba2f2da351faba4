"""One call path: the sync and async engines share one pipeline.

The sync :class:`~repro.engine.Engine` and the async
:class:`~repro.engine.AsyncEngine` drive the same steps
(:mod:`repro.engine.drive`), so behaviour that used to drift between two
copies is pinned here once per driver:

* the resilient shard fan-out cancels every still-pending sibling on
  every exit path (a shard raising, the deadline running out, a
  degrade request the query cannot honour);
* the sessions expose the same public surface;
* the per-call settings (:class:`~repro.engine.spec.CallSpec`) keep
  the keyword sets and defaults of the engine constructors.
"""

from __future__ import annotations

import asyncio
import concurrent.futures

import pytest

from repro import AsyncEngine, AsyncSession, Database, Engine, Session
from repro.algebra import builder as rb
from repro.algebra.conditions import Attr, Eq, Lt
from repro.engine import EngineError
from repro.engine.spec import CALL_FIELDS, ENGINE_KEYWORDS
from repro.resilience import DeadlineExceeded
from repro.sharding import ShardedDatabase, ShardExecutor


def _sharded() -> ShardedDatabase:
    db = Database.from_dict({"R": (("a", "b"), [(i, i + 1) for i in range(12)])})
    return ShardedDatabase.from_database(db, 3)


class _OneFailsRestHang(ShardExecutor):
    """Shard 0's future has already failed; the others never finish."""

    kind = "fake"

    def __init__(self):
        self.pending: list[concurrent.futures.Future] = []

    def submit(self, task):
        future: concurrent.futures.Future = concurrent.futures.Future()
        if task.shard == 0:
            future.set_exception(RuntimeError("shard 0 is down"))
        else:
            self.pending.append(future)
        return future


def _evaluate(twin: str, plan, database, **kwargs):
    if twin == "Engine":
        with Engine() as engine:
            return engine.evaluate(plan, database, **kwargs)

    async def main():
        async with AsyncEngine(pool="serial") as engine:
            return await engine.evaluate(plan, database, **kwargs)

    return asyncio.run(main())


_CQ = rb.project(rb.select(rb.relation("R"), Eq(Attr("a"), Attr("a"))), ["a"])
# Distributes over shards but is not monotone (an order comparison),
# so "degrade" is refused.
_FO = rb.select(rb.relation("R"), Lt(Attr("a"), Attr("b")))

_EXITS = {
    "raise": (_CQ, {"on_shard_error": "raise", "timeout": 30.0}, RuntimeError),
    "deadline": (_CQ, {"on_shard_error": "degrade", "timeout": 0.3}, DeadlineExceeded),
    "degrade-blocked": (_FO, {"on_shard_error": "degrade"}, EngineError),
}


@pytest.mark.timeout(60)
@pytest.mark.parametrize("exit_path", sorted(_EXITS))
@pytest.mark.parametrize("twin", ["Engine", "AsyncEngine"])
def test_fan_out_cancels_pending_siblings(twin, exit_path):
    plan, kwargs, error = _EXITS[exit_path]
    executor = _OneFailsRestHang()
    with pytest.raises(error):
        _evaluate(
            twin,
            plan,
            _sharded(),
            strategy="naive",
            executor=executor,
            use_cache=False,
            retry=False,
            **kwargs,
        )
    assert len(executor.pending) == 2
    assert all(future.cancelled() for future in executor.pending)


def test_async_session_has_every_public_session_method():
    public = {name for name in dir(Session) if not name.startswith("_")}
    assert public - set(dir(AsyncSession)) == set()


def test_engine_keywords_and_defaults_are_pinned():
    assert ENGINE_KEYWORDS == {
        "cache_size", "cache", "default_semantics", "shards", "executor",
        "partitioner", "optimize", "stats", "backend", "auto_exact_budget",
        "timeout", "on_shard_error", "retry", "trace",
    }
    assert CALL_FIELDS == {
        "semantics", "use_cache", "shards", "executor", "partitioner",
        "optimize", "stats", "backend", "timeout", "on_shard_error",
        "retry", "trace",
    }
    defaults = Engine().describe()["defaults"]
    assert defaults == {
        "semantics": "set", "optimize": True, "stats": True, "backend": "auto",
        "shards": None, "executor": "serial",
        "auto_exact_budget": defaults["auto_exact_budget"], "timeout": None,
        "on_shard_error": "raise",
        "retry": {"max_attempts": 2, "base_delay": 0.02, "max_delay": 0.2},
        "trace": False,
    }


@pytest.mark.parametrize(
    "make",
    [
        lambda: Engine(use_cache=False),
        lambda: Engine(semantics="bag"),
        lambda: Engine(pool="thread"),
        lambda: Session(_sharded(), bogus=1),
        lambda: AsyncEngine(bogus=1),
        lambda: AsyncSession(_sharded(), bogus=1),
        lambda: Engine().compare(rb.relation("R"), _sharded(), bogus=1),
    ],
)
def test_unknown_keywords_are_rejected(make):
    with pytest.raises(TypeError, match="unexpected keyword"):
        make()
