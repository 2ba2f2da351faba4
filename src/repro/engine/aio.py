"""The async driver of the engine pipeline: concurrent batch/compare fan-out.

The paper's central workload is *comparison*: run six evaluation regimes
on the same (query, database) pairs.  Every strategy is a pure function
of its inputs, so the shape is embarrassingly parallel —
:class:`AsyncEngine` exploits that::

    from repro.engine import AsyncSession

    async with AsyncSession(database) as session:
        results = await session.compare(query)          # strategies overlap
        batch = await session.evaluate_batch(queries)   # queries overlap

``AsyncEngine`` composes a sync :class:`~repro.engine.core.Engine`
(pass one in to share it and its cache) and drives the *same* pipeline
steps (:mod:`repro.engine.drive`) — validation, planning, caching,
sharding, resilience and tracing are the sync engine's code.  It
differs only in how it answers the steps:

* **Worker dispatch.**  A cache miss is shipped as a picklable
  :class:`~repro.engine.workers.Task` to a
  :class:`~repro.engine.workers.WorkerPool` — the same protocol and pool
  the shard fan-out uses.  ``pool="process"`` (the default) gives true
  parallelism across cores and cancels into the worker process;
  ``"thread"`` keeps everything in-process; ``"serial"`` computes
  inline on the event loop (deterministic debugging).  A
  ``WorkerPool`` instance passed in is borrowed and never closed by
  the engine.  Waits are bounded by the call's deadline and transient
  failures are retried by the same loop that fans out shards.
* **Bounded fan-out.**  ``max_concurrency`` caps in-flight dispatches
  with an :class:`asyncio.Semaphore`, held only around a hop onto
  workers (never while awaiting another engine call), so nested paths —
  a sharded evaluation falling back to the monolithic one — cannot
  deadlock on it.
* **Single-flight.**  Concurrent evaluations of the same cache key
  coalesce onto one computation; followers get the shared result marked
  ``from_cache=True``.  The in-flight group is reference-counted:
  cancelling one awaiter (the leader included) leaves the computation
  running for the remaining awaiters, while cancelling the *last*
  awaiter cancels the shared computation itself — the cancellation
  reaches the dispatch future (and, on the process pool, terminates the
  worker process running it), and the abandoned result is **never**
  inserted into the result cache.

On ``pool="process"`` a strategy travels to the worker pickled by class
reference, so it must be importable; a strategy defined inside a
function runs on ``pool="thread"``.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Any, Hashable, Iterable, Mapping, Sequence

from ..datamodel.database import Database
from ..obs.explain import render_explain
from ..obs.trace import SpanContext
from .cache import CacheStats
from .core import Engine, PreparedCall, SessionBase
from .drive import Compute, Dispatch, answer_async, drive_async, run_tasks
from .errors import EngineError, StrategyNotApplicableError
from .result import QueryResult
from .spec import ENGINE_KEYWORDS, check_settings
from .workers import WorkerPool

__all__ = ["AsyncEngine", "AsyncSession"]


class _InFlight:
    """One coalesced in-flight computation plus its awaiter refcount.

    ``waiters`` counts the evaluations currently awaiting ``task``
    through :func:`asyncio.shield`.  A cancelled awaiter decrements the
    count and leaves the computation running for the others; when the
    count reaches zero with the task still pending, nobody wants the
    result any more, so the task itself is cancelled — which unwinds
    :meth:`AsyncEngine._compute` *before* its cache insert, closing the
    "cancelled await still populates the cache" gap.
    """

    __slots__ = ("task", "waiters")

    def __init__(self, task: asyncio.Task):
        self.task = task
        self.waiters = 0


class AsyncEngine:
    """Evaluates queries concurrently on an asyncio event loop.

    Accepts every argument :class:`~repro.engine.core.Engine` does, plus
    the async-specific ``pool``/``max_workers``/``max_concurrency``.
    Pass ``engine=`` to share an existing sync engine (and its cache);
    otherwise a private engine is created and closed with this one.
    """

    def __init__(
        self,
        *,
        engine: Engine | None = None,
        pool: Any = "process",
        max_workers: int | None = None,
        max_concurrency: int | None = None,
        **settings: Any,
    ):
        check_settings("AsyncEngine", settings)
        # A passed-in WorkerPool is borrowed (the server shares one
        # across tenants); a pool built from a kind name is ours.
        self._owns_pool = not isinstance(pool, WorkerPool)
        self._pool = WorkerPool(pool, max_workers) if self._owns_pool else pool
        if max_concurrency is not None and max_concurrency < 1:
            raise EngineError("max_concurrency must be a positive integer or None")
        self._owns_engine = engine is None
        self._engine = engine or Engine(**settings)
        self.max_concurrency = max_concurrency
        # Loop-bound state, (re)created by _bind_loop so one AsyncEngine
        # survives successive asyncio.run() invocations.
        self._loop: asyncio.AbstractEventLoop | None = None
        self._semaphore: asyncio.Semaphore | None = None
        self._pending: dict[Hashable, _InFlight] = {}

    # ------------------------------------------------------------------
    # Introspection and delegation to the sync twin
    # ------------------------------------------------------------------
    @property
    def engine(self) -> Engine:
        """The sync engine this one shares its cache and config with."""
        return self._engine

    @staticmethod
    def strategies() -> tuple[str, ...]:
        return Engine.strategies()

    def describe(self) -> dict[str, Any]:
        """The capability table and configuration of the sync engine."""
        return self._engine.describe()

    @property
    def cache_stats(self) -> CacheStats:
        return self._engine.cache_stats

    @property
    def cache_enabled(self) -> bool:
        return self._engine.cache_enabled

    def clear_cache(self) -> None:
        self._engine.clear_cache()

    @property
    def default_semantics(self) -> str:
        return self._engine.defaults.semantics

    @property
    def pool_kind(self) -> str:
        return self._pool.kind

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the owned pool's workers and close the owned inner engine."""
        if self._owns_pool:
            self._pool.close()
        if self._owns_engine:
            self._engine.close()

    async def aclose(self) -> None:
        """Awaitable ``close``: pool shutdown happens off the event loop."""
        await asyncio.get_running_loop().run_in_executor(None, self.close)

    async def __aenter__(self) -> "AsyncEngine":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    # Loop-bound plumbing
    # ------------------------------------------------------------------
    def _bind_loop(self) -> None:
        loop = asyncio.get_running_loop()
        if self._loop is not loop:
            self._loop = loop
            self._semaphore = (
                asyncio.Semaphore(self.max_concurrency)
                if self.max_concurrency is not None
                else None
            )
            self._pending = {}

    def _limit(self):
        """The dispatch limiter: the semaphore, or a reusable no-op."""
        if self._semaphore is not None:
            return self._semaphore
        return contextlib.nullcontext()

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    async def evaluate(
        self,
        query: Any,
        database: Database,
        *,
        strategy: str = "naive",
        database_fp: str | None = None,
        **kwargs: Any,
    ) -> QueryResult:
        """Awaitable :meth:`repro.engine.Engine.evaluate`, same contract.

        The result is identical to the sync engine's (worker-measured
        ``elapsed`` aside); concurrent calls overlap up to
        ``max_concurrency`` and the pool's worker count.  The deadline
        additionally bounds the wait on the worker pool, so a wedged
        worker cannot hold the caller past its budget.  With
        ``trace=True``, worker-side spans (the strategy run happens in
        the pool) are stitched back under this call's root span via the
        task's :class:`~repro.obs.SpanContext`.
        """
        self._bind_loop()
        return await drive_async(
            self._engine._steps(query, database, strategy, database_fp, kwargs),
            self._answer,
        )

    async def _answer(self, step: Any) -> Any:
        """The async driver: dispatch misses to the pool, never block."""
        if isinstance(step, Compute):
            return await self._single_flight(step.call, step.key)
        if isinstance(step, Dispatch):
            async with self._limit():
                return await drive_async(step.steps, self._answer)
        return await answer_async(step)

    async def _single_flight(self, call: PreparedCall, key: Hashable | None) -> QueryResult:
        if key is None:
            return await self._compute(call, None)
        # Concurrent evaluations of one key share one computation.  The
        # shared computation runs in its own task behind asyncio.shield,
        # so a cancelled awaiter does not kill it for the others; the
        # _InFlight refcount cancels the shared task only when the
        # *last* awaiter is gone, so an abandoned worker result is never
        # inserted into the cache.  The deadline and retry policy are
        # not part of the key: they change whether a computation
        # finishes, never what it computes.
        created = False
        flight = self._pending.get(key)
        if flight is None or flight.task.cancelled():
            created = True
            flight = _InFlight(
                asyncio.get_running_loop().create_task(self._compute(call, key))
            )
            self._pending[key] = flight
            flight.task.add_done_callback(
                lambda _task, _key=key, _flight=flight: self._discard_flight(
                    _key, _flight
                )
            )
        flight.waiters += 1
        try:
            result = await asyncio.shield(flight.task)
        finally:
            flight.waiters -= 1
            if flight.waiters == 0 and not flight.task.done():
                # Every awaiter has been cancelled: abandon the shared
                # computation.  Discarding the flight first keeps a new
                # arrival (in the same event-loop step) from joining a
                # task that is about to unwind.
                self._discard_flight(key, flight)
                flight.task.cancel()
        return result if created else result.as_cached()

    def _discard_flight(self, key: Hashable, flight: _InFlight) -> None:
        """Drop one in-flight entry, never clobbering a newer one."""
        if self._pending.get(key) is flight:
            del self._pending[key]

    async def _compute(self, call: PreparedCall, key: Hashable | None) -> QueryResult:
        # SpanContext.capture() is None when the caller is untraced.  The
        # computation task's context was copied from the (leader) caller,
        # so run_tasks grafts the worker's spans under that caller's live
        # span — never into the stored result, which may be shared
        # through the result cache.
        task = call.task(trace=SpanContext.capture())
        (computed,), _, retries = await self._answer(
            Dispatch(
                run_tasks(
                    self._pool,
                    [task],
                    deadline=call.deadline,
                    retry=call.spec.retry,
                    on_error="retry",
                )
            )
        )
        return self._engine._store(call, key, computed, retries)

    async def evaluate_batch(
        self,
        queries: Iterable[Any],
        database: Database,
        *,
        strategy: str = "naive",
        database_fp: str | None = None,
        **kwargs: Any,
    ) -> list[QueryResult]:
        """Evaluate many queries concurrently on one database.

        The database is fingerprinted (and, with sharding, partitioned)
        once up front; the per-query evaluations then overlap, bounded
        by ``max_concurrency`` and the pool size.  Results come back in
        input order.
        """
        self._bind_loop()
        database, call = self._engine._batch_calls(database, strategy, database_fp, kwargs)
        return list(
            await asyncio.gather(*(self.evaluate(q, database, **call) for q in queries))
        )

    async def compare(
        self,
        query: Any,
        database: Database,
        *,
        strategies: Sequence[str] | None = None,
        skip_inapplicable: bool = True,
        database_fp: str | None = None,
        options: Mapping[str, Mapping[str, Any]] | None = None,
        **overrides: Any,
    ) -> dict[str, QueryResult]:
        """Run every applicable strategy concurrently on one query.

        Same contract as :meth:`repro.engine.Engine.compare` (one shared
        deadline included); the strategy runs fan out together instead
        of one after another.  Inapplicable strategies (raised either
        before dispatch or inside a worker) are silently omitted under
        ``skip_inapplicable``.
        """
        self._bind_loop()
        database, calls = self._engine._compare_calls(
            database, strategies, database_fp, options, overrides
        )

        async def run_one(name: str, call: dict[str, Any]):
            try:
                return name, await self.evaluate(query, database, **call)
            except StrategyNotApplicableError:
                if not skip_inapplicable:
                    raise
                return name, None

        pairs = await asyncio.gather(*(run_one(name, call) for name, call in calls))
        return {name: result for name, result in pairs if result is not None}


class AsyncSession(SessionBase):
    """An :class:`AsyncEngine` bound to one database.

    The async mirror of :class:`~repro.engine.core.Session` (same
    keywords, plus ``pool``/``max_workers``/``max_concurrency``):
    memoises the database fingerprint, carries per-session sharding
    config, and — as an *async* context manager — closes the engine it
    created (a shared engine survives session exit and keeps its own
    configuration; use the per-call keywords to override it)::

        async with AsyncSession(database) as session:
            results = await session.compare(query)
    """

    engine_type = AsyncEngine
    keywords = ENGINE_KEYWORDS | {"pool", "max_workers", "max_concurrency"}

    async def aclose(self) -> None:
        if self._owns_engine:
            await self.engine.aclose()

    async def __aenter__(self) -> "AsyncSession":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    async def explain(self, query: Any, **kwargs: Any) -> str:
        """Evaluate with ``trace=True`` and render the EXPLAIN report.

        The async mirror of :meth:`repro.engine.Session.explain`:
        accepts every ``evaluate`` keyword and returns one report
        combining plan/backend/sharding/resilience notes with the span
        tree (worker spans included).
        """
        kwargs["trace"] = True
        return render_explain(await self.evaluate(query, **kwargs))
