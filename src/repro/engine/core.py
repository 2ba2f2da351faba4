"""The ``Engine``/``Session`` façade: one call for every evaluation regime.

::

    from repro.engine import Session

    session = Session(database)
    result = session.evaluate(query, strategy="approx-guagliardo16")
    result.certain_rows()          # sound answers
    session.compare(query)         # every applicable strategy side by side

An evaluation is one pipeline of plain steps, written once and shared
with :class:`~repro.engine.aio.AsyncEngine`: :meth:`Engine._prepare`
resolves the call's :class:`~repro.engine.spec.CallSpec` and does all of
the setup (normalize, auto-plan, fold options, deadline admission,
sharding); the monolithic path probes the cache, computes a miss and
stores the result; sharded databases go through
:func:`repro.sharding.evaluate.evaluate_sharded`; the plan/backend/trace
notes and metrics are attached afterwards.  ``Engine`` drives the steps
inline (:func:`repro.engine.drive.drive`).  ``Session`` binds an engine
to one database and memoises the database fingerprint.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from typing import Any, Hashable, Iterable, Iterator, Mapping, Sequence

from ..datamodel.database import Database
from ..exec import interpreter_note
from ..obs import metrics as obs_metrics
from ..obs.explain import render_explain
from ..obs.trace import Span, SpanContext, span, start_trace
from ..resilience import Deadline, armed_plan, breaker_snapshots, resolve_deadline
from .cache import (
    CacheBackend,
    CacheStats,
    database_fingerprint,
    evaluation_cache_key,
    resolve_cache_backend,
)
from .drive import Compute, Dispatch, answer_sync, drive
from .errors import StrategyNotApplicableError
from .frontend import NormalizedQuery, normalize_query
from .planner import (
    AUTO,
    PlanDecision,
    choose_strategy,
    default_exact_budget,
    unsupported_plan_ops,
)
from .registry import EvaluationStrategy, available_strategies, get_strategy
from .result import QueryResult
from .spec import CALL_FIELDS, ENGINE_KEYWORDS, CallSpec, check_settings
from .workers import Task, TaskResult, WorkerPool, run_task

__all__ = [
    "Engine",
    "Session",
    "PreparedCall",
    "default_engine",
    "evaluate",
]


@dataclass(eq=False)
class PreparedCall:
    """One evaluation after :meth:`Engine._prepare`: everything resolved."""

    spec: CallSpec
    strategy: EvaluationStrategy
    normalized: NormalizedQuery
    #: The ``strategy="auto"`` decision (``None`` for explicit calls).
    decision: PlanDecision | None
    #: Strategy options with the resolved optimize/stats/backend folded in.
    options: Mapping[str, Any]
    #: What the call runs on: the sharded view when ``sharded``.
    database: Database
    sharded: bool
    database_fp: str | None
    deadline: Deadline | None
    #: The result cache, or ``None`` when this call bypasses it.
    cache: CacheBackend | None
    #: The call's explicit ``backend=`` (for the post-hoc backend note).
    requested_backend: str | None
    #: The trace root when ``spec.trace`` is on.
    root: Span | None

    def task(self, trace: SpanContext | None = None) -> Task:
        """The whole-query worker task of this call."""
        return Task(
            normalized=self.normalized,
            database=self.database,
            strategy=self.strategy.name,
            semantics=self.spec.semantics,
            options=tuple(self.options.items()),
            deadline=self.deadline,
            trace=trace,
            faults=armed_plan(),
        )


class Engine:
    """Evaluates queries through registered strategies, with caching.

    Besides ``cache_size``/``cache`` (the result-cache backend: the
    in-memory LRU, ``"disk:/path"`` or a
    :class:`~repro.engine.cache.CacheBackend`), ``default_semantics``
    and ``auto_exact_budget`` (the valuation-space budget under which
    ``strategy="auto"`` may pick ``exact-certain``), the constructor
    takes a default for every per-call setting of
    :class:`~repro.engine.spec.CallSpec` — ``optimize``, ``stats``,
    ``backend``, ``timeout``, ``on_shard_error``, ``retry``, ``trace``,
    ``shards``, ``executor``, ``partitioner`` — held as
    :attr:`defaults` (also readable as ``engine.default_<name>``).
    """

    def __init__(
        self,
        *,
        cache_size: int = 256,
        cache: Any = None,
        default_semantics: str = "set",
        auto_exact_budget: int | None = None,
        **defaults: Any,
    ):
        #: The settings every call starts from; per-call keywords
        #: override them field by field.
        self.defaults = CallSpec.from_settings(default_semantics, defaults)
        #: ``None`` uses the planner default
        #: (:data:`repro.engine.planner.DEFAULT_EXACT_BUDGET`).
        self.auto_exact_budget = auto_exact_budget
        self._cache = resolve_cache_backend(cache, cache_size=cache_size)
        self._executors: dict[Any, Any] = {}

    def __getattr__(self, name: str) -> Any:
        # ``engine.default_optimize`` etc. read the default spec.
        if name.startswith("default_") and name[8:] in CALL_FIELDS:
            return getattr(self.defaults, name[8:])
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @staticmethod
    def strategies() -> tuple[str, ...]:
        """Canonical names of every registered strategy."""
        return available_strategies()

    def describe(self) -> dict[str, Any]:
        """The engine's introspection surface, as plain data.

        Includes the full capability table (what ``strategy="auto"``
        consults — see :mod:`repro.engine.planner` for the decision
        rules), the cache backend, and the engine defaults, so "why did
        auto choose that?" is answerable without reading engine code.
        """
        table = available_strategies(verbose=True)
        strategies = {}
        for name, caps in table.items():
            strat = get_strategy(name)
            strategies[name] = {
                "description": strat.description,
                "aliases": list(strat.aliases),
                **caps.as_dict(),
            }
        spec = self.defaults
        return {
            "strategies": strategies,
            "cache": {
                "backend": type(self._cache).__name__,
                "enabled": self.cache_enabled,
                "stats": self.cache_stats,
            },
            "defaults": {
                "semantics": spec.semantics,
                "optimize": spec.optimize,
                "stats": spec.stats,
                "backend": spec.backend,
                "shards": spec.shards,
                "executor": spec.executor,
                "auto_exact_budget": (
                    default_exact_budget()
                    if self.auto_exact_budget is None
                    else self.auto_exact_budget
                ),
                "timeout": spec.timeout,
                "on_shard_error": spec.on_shard_error,
                "retry": (
                    None
                    if spec.retry is None
                    else {
                        "max_attempts": spec.retry.max_attempts,
                        "base_delay": spec.retry.base_delay,
                        "max_delay": spec.retry.max_delay,
                    }
                ),
                "trace": spec.trace,
            },
            "observability": {
                "trace_default": spec.trace,
                "metrics_enabled": obs_metrics.metrics_enabled(),
                "metrics": obs_metrics.snapshot(),
                "breakers": breaker_snapshots(),
            },
        }

    @property
    def cache(self) -> CacheBackend:
        """The result-cache backend this engine stores into."""
        return self._cache

    @property
    def cache_stats(self) -> CacheStats:
        return self._cache.stats

    @property
    def cache_enabled(self) -> bool:
        return self._cache.enabled

    def clear_cache(self) -> None:
        self._cache.clear()

    def close(self) -> None:
        """Shut down any shard worker pools this engine created.

        Long-lived applications that discard engines should call this
        (or use the engine as a context manager); otherwise process
        pools live until interpreter exit.
        """
        for executor in self._executors.values():
            executor.close()
        self._executors.clear()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        query: Any,
        database: Database,
        *,
        strategy: str = "naive",
        database_fp: str | None = None,
        **kwargs: Any,
    ) -> QueryResult:
        """Evaluate ``query`` on ``database`` with the named strategy.

        ``query`` may be an SQL string, an SQL/algebra/calculus AST, or an
        :class:`FoQuery` — see :func:`repro.engine.normalize_query`.
        Keywords naming a :class:`~repro.engine.spec.CallSpec` field
        override the engine default for this call (``None`` keeps it);
        any other keyword is a strategy option (e.g. ``variant="aware"``
        for ``ctables``).

        ``shards``/``executor``/``partitioner`` control sharded
        evaluation (:mod:`repro.sharding`): ``shards=N`` partitions a
        plain database on the fly (prefer a pre-built
        :class:`~repro.sharding.ShardedDatabase` or ``Session(...,
        shards=N)`` to partition once), ``shards=0`` forces monolithic
        evaluation even on a sharded database.

        ``optimize`` toggles the plan optimizer
        (:mod:`repro.algebra.optimize`) for strategies that support it;
        the resolved value is part of the result-cache key, so optimized
        and unoptimized results never alias.  ``stats`` likewise toggles
        statistics-fed cost-based planning (:mod:`repro.algebra.stats`)
        for strategies that declare the capability — estimates pick join
        orders and hash build sides but can never change answers.

        ``backend`` picks the execution backend (:mod:`repro.exec`) for
        strategies that run whole algebra plans: ``"auto"`` (the engine
        default) compiles expressible plans to a single SQLite statement
        and falls back to the interpreter otherwise, ``"interpreter"``
        forces the tree-walking evaluator, and ``"sqlite"`` demands
        pushdown (raising when the plan cannot be compiled).  The
        requested and resolved backends land in
        ``result.metadata["backend"]``; the resolved request is part of
        the cache key for strategies that honour it.

        ``strategy="auto"`` lets the engine pick: naïve where Theorem
        4.4 makes it exact, the sound Figure 2b approximation otherwise,
        exact certain answers under a size budget — see
        :mod:`repro.engine.planner`.  The chosen strategy evaluates
        through the ordinary path (cache keys included), and the
        decision is recorded under ``result.metadata["plan"]``.

        ``timeout`` is a wall-clock budget in seconds (or an existing
        :class:`~repro.resilience.Deadline`, so one deadline can bound a
        whole batch); a budget already gone fails at admission, before
        the cache is consulted, and a budget that runs out mid-way
        aborts with :class:`~repro.resilience.DeadlineExceeded` — at
        evaluator plan nodes, inside ``Dom^k`` enumerations, in the
        SQLite backend's progress handler, and at worker fan-out
        boundaries.  Deadlines never enter cache keys: a result computed
        under a deadline is the same result.

        ``on_shard_error`` governs sharded evaluation when a shard
        fails: ``"raise"`` (default) propagates the failure,
        ``"retry"`` retries transient failures per the ``retry`` policy
        first, ``"degrade"`` additionally drops shards that still fail
        and merges the survivors — allowed only where the query's
        fragment (CQ/UCQ, monotone) makes the subset merge a sound
        under-approximation, recorded in
        ``result.metadata["degraded"]`` with guarantee
        ``"sound-subset"``.

        ``trace`` collects a span tree (:mod:`repro.obs`) covering the
        whole call — normalization, planning, cache probes, per-shard
        execution — and attaches its export as
        ``result.metadata["trace"]`` (rendered by ``result.explain()``).
        Like deadlines, the flag never enters strategy options or cache
        keys: tracing can describe an answer but never change it.
        Stored cache entries carry no trace; the returned copy does.
        """
        return drive(
            self._steps(query, database, strategy, database_fp, kwargs), self._answer
        )

    def _answer(self, step: Any) -> Any:
        """The sync driver: compute misses inline, block on futures."""
        if isinstance(step, Compute):
            with span("execute", strategy=step.call.strategy.name) as execute:
                computed = run_task(step.call.task())
                execute.incr("rows_out", len(computed.outcome.answer))
            return self._store(step.call, step.key, computed)
        if isinstance(step, Dispatch):
            return drive(step.steps, self._answer)
        return answer_sync(step)

    # -- the pipeline, shared with AsyncEngine -------------------------
    def _steps(
        self,
        query: Any,
        database: Database,
        strategy: str,
        database_fp: str | None,
        kwargs: dict[str, Any],
    ):
        """The evaluate pipeline as steps (see :mod:`repro.engine.drive`)."""
        with self._prepare(query, database, strategy, database_fp, kwargs) as call:
            if call.sharded:
                from ..sharding.evaluate import evaluate_sharded

                result = yield from evaluate_sharded(
                    call,
                    executor=self._shard_executor(call.spec.executor),
                    coalesced=lambda: self._monolithic(call),
                )
            else:
                result = yield from self._monolithic(call)
        return self._annotate(call, result)

    @contextmanager
    def _prepare(
        self,
        query: Any,
        database: Database,
        strategy: str,
        database_fp: str | None,
        kwargs: dict[str, Any],
    ) -> Iterator[PreparedCall]:
        """Resolve one call: spec, trace root, normalization, planning,
        the strategy's semantics and ``plan_ops`` gates, options,
        deadline admission and sharding.

        ``kwargs`` holds the call's :class:`CallSpec` overrides and its
        strategy options; the trace root (when tracing) stays open for
        the ``with`` body.
        """
        overrides = {name: kwargs.pop(name) for name in CALL_FIELDS.intersection(kwargs)}
        spec = self.defaults.override(overrides)
        with (start_trace("evaluate") if spec.trace else nullcontext()) as root:
            with span("normalize"):
                normalized = normalize_query(query, database.schema())
            decision: PlanDecision | None = None
            if strategy == AUTO:
                with span("plan") as planning:
                    decision = choose_strategy(
                        normalized,
                        database,
                        semantics=spec.semantics,
                        exact_budget=self.auto_exact_budget,
                    )
                    planning.set_attr("chosen", decision.strategy)
                    planning.set_attr("reason", decision.reason)
                strategy = decision.strategy
            strat = get_strategy(strategy)
            if spec.semantics not in strat.supported_semantics:
                raise StrategyNotApplicableError(
                    f"strategy {strat.name!r} supports {strat.supported_semantics} "
                    f"semantics, not {spec.semantics!r}"
                )
            unsupported = unsupported_plan_ops(strat.capabilities, normalized, spec.semantics)
            if unsupported:
                raise StrategyNotApplicableError(
                    f"strategy {strat.name!r} is defined on the operators "
                    f"{sorted(strat.capabilities.plan_ops)} only; this plan uses "
                    f"{unsupported}"
                )
            options = _fold_options(strat, spec, kwargs)
            deadline = resolve_deadline(spec.timeout)
            if deadline is not None:
                # Admission check: a request whose budget is already gone
                # fails here — before the cache probe, and without racing
                # the backend (a tiny SQLite statement can finish before
                # the progress handler ever fires).
                deadline.check("evaluation admission")
            sharded = self._shard_view(
                database, overrides.get("shards"), overrides.get("partitioner")
            )
            if root is not None:
                root.set_attr("strategy", strat.name)
                root.set_attr("semantics", spec.semantics)
            yield PreparedCall(
                spec=spec,
                strategy=strat,
                normalized=normalized,
                decision=decision,
                options=options,
                database=database if sharded is None else sharded,
                sharded=sharded is not None,
                database_fp=database_fp,
                deadline=deadline,
                cache=self._cache if spec.use_cache and self._cache.enabled else None,
                requested_backend=overrides.get("backend"),
                root=root,
            )

    def _monolithic(self, call: PreparedCall):
        """Cache probe, then (on a miss) a :class:`Compute` step."""
        key = None
        if call.cache is not None:
            with span("cache.lookup") as lookup:
                database_fp = call.database_fp
                if database_fp is None:
                    database_fp = database_fingerprint(call.database)
                key = evaluation_cache_key(
                    call.normalized.fingerprint,
                    database_fp,
                    call.strategy.name,
                    call.spec.semantics,
                    call.options,
                )
                cached = call.cache.get(key)
                lookup.set_attr("outcome", "hit" if cached is not None else "miss")
            if cached is not None:
                return cached.as_cached()
        return (yield Compute(call, key))

    def _store(
        self,
        call: PreparedCall,
        key: Hashable | None,
        computed: TaskResult,
        retries: int = 0,
    ) -> QueryResult:
        """Build the result of a computed miss and put it in the cache.

        A failed computation never gets here, so partial work (a blown
        deadline, a cancelled await) never poisons the cache.
        """
        outcome = computed.outcome
        metadata = dict(outcome.metadata)
        if retries:
            resilience = dict(metadata.get("resilience") or {})
            resilience["dispatch_retries"] = retries
            metadata["resilience"] = resilience
        result = QueryResult(
            strategy=call.strategy.name,
            semantics=call.spec.semantics,
            relation=outcome.answer,
            tuples=outcome.annotated,
            certain=outcome.certain,
            possible=outcome.possible,
            certainly_false=outcome.certainly_false,
            elapsed=computed.elapsed,
            from_cache=False,
            fingerprint=call.normalized.fingerprint,
            metadata=metadata,
        )
        if key is not None:
            call.cache.put(key, result)
        return result

    @staticmethod
    def _annotate(call: PreparedCall, result: QueryResult) -> QueryResult:
        """Metrics, then the plan/backend/trace notes.

        Attached *after* evaluation (and after any cache hit), so auto
        and explicit, traced and untraced calls share cache entries —
        the stored result carries no notes, the returned copy does.
        """
        name = call.strategy.name
        obs_metrics.incr("engine.evaluations", strategy=name)
        obs_metrics.observe("engine.elapsed_ms", result.elapsed * 1000.0, strategy=name)
        notes: dict[str, Any] = {}
        if call.decision is not None:
            notes["plan"] = call.decision.as_metadata()
        if call.requested_backend is not None and "backend" not in result.metadata:
            # Strategies that route plans through repro.exec record the
            # requested/resolved pair themselves; an explicit request on
            # an interpreter-only path still deserves an answer.
            notes["backend"] = interpreter_note(
                call.requested_backend,
                f"strategy {name!r} executes on the interpreter only",
            )
        if call.root is not None:
            notes["trace"] = call.root.export()
        if not notes:
            return result
        return replace(result, metadata={**result.metadata, **notes})

    def _shard_view(self, database: Database, shards: int | None, partitioner: Any):
        """Resolve the sharded view of this call, or None for monolithic.

        ``shards``/``partitioner`` are the *call's* explicit values: an
        already-sharded database is used as-is unless the caller asks
        for a different shard count — the engine default never
        re-partitions a database somebody partitioned on purpose.
        """
        from ..sharding.database import ShardedDatabase

        if isinstance(database, ShardedDatabase):
            if shards == 0:
                return None
            matching = (shards is None or shards == database.shard_count) and (
                partitioner is None or partitioner is database.partitioner
            )
            if matching:
                return database
            return ShardedDatabase.from_database(
                database,
                shards or database.shard_count,
                partitioner or database.partitioner,
            )
        if shards is None:
            shards = self.defaults.shards
        if not shards:
            return None
        return ShardedDatabase.from_database(
            database, shards, partitioner or self.defaults.partitioner
        )

    def _shard_executor(self, spec: Any) -> WorkerPool:
        """The shard worker pool for this call: a passed-in pool is
        borrowed; one built from a kind name is memoised and owned."""
        if isinstance(spec, WorkerPool):
            return spec
        pool = self._executors.get(spec)
        if pool is None:
            pool = self._executors[spec] = WorkerPool(spec)
        return pool

    # -- batch and compare: one call builder each ------------------------
    def _shared(
        self, database: Database, database_fp: str | None, kwargs: Mapping[str, Any]
    ) -> tuple[Database, dict[str, Any]]:
        """What a batch or comparison resolves once for all its calls:
        the shard view (partitioned once) and the database fingerprint
        (hashed once)."""
        kwargs = dict(kwargs)
        sharded = self._shard_view(database, kwargs.get("shards"), kwargs.get("partitioner"))
        if sharded is not None:
            database = sharded
            kwargs["shards"] = None  # resolved; avoid re-partitioning per call
        if database_fp is None and kwargs.get("use_cache", True) and self.cache_enabled:
            database_fp = database_fingerprint(database)
        kwargs["database_fp"] = database_fp
        return database, kwargs

    def _batch_calls(
        self,
        database: Database,
        strategy: str,
        database_fp: str | None,
        kwargs: Mapping[str, Any],
    ) -> tuple[Database, dict[str, Any]]:
        """The shared database and the keywords of every query's call."""
        database, kwargs = self._shared(database, database_fp, kwargs)
        return database, {**kwargs, "strategy": strategy}

    def _compare_calls(
        self,
        database: Database,
        strategies: Sequence[str] | None,
        database_fp: str | None,
        options: Mapping[str, Mapping[str, Any]] | None,
        overrides: Mapping[str, Any],
    ) -> tuple[Database, list[tuple[str, dict[str, Any]]]]:
        """The shared database and one call's keywords per strategy.

        The ``timeout`` is resolved to one deadline up front and shared
        by every strategy; a per-strategy entry in ``options`` (an
        ``optimize``/``stats``/``backend`` override or a strategy
        option) wins over the call-level keyword.
        """
        check_settings("compare", overrides, CALL_FIELDS)
        deadline = resolve_deadline(overrides.get("timeout"), self.defaults.timeout)
        database, shared = self._shared(
            database, database_fp, {**overrides, "timeout": deadline}
        )
        names = tuple(strategies) if strategies is not None else self.strategies()
        per_strategy = options or {}
        return database, [
            (name, {**shared, "strategy": name, **per_strategy.get(name, {})})
            for name in names
        ]

    def evaluate_batch(
        self,
        queries: Iterable[Any],
        database: Database,
        *,
        strategy: str = "naive",
        database_fp: str | None = None,
        **kwargs: Any,
    ) -> list[QueryResult]:
        """Evaluate many queries on one database, hashing the database once.

        With sharding, the database is also partitioned once up front
        rather than per query.
        """
        database, call = self._batch_calls(database, strategy, database_fp, kwargs)
        return [self.evaluate(query, database, **call) for query in queries]

    def compare(
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
        """Run several strategies on the same query, keyed by strategy name.

        ``overrides`` are :class:`~repro.engine.spec.CallSpec` keywords
        applying to every strategy; ``options`` maps a strategy name to
        its extra keyword options.  With ``skip_inapplicable`` (the
        default), strategies that cannot consume the query's frontend
        are silently omitted — handy when comparing an SQL query that
        only some strategies can lower.

        ``timeout`` bounds the *whole* comparison: the budget is
        resolved to one deadline up front and shared by every strategy,
        so a slow strategy cannot starve the rest of the wall clock it
        was promised.  A blown deadline raises
        :class:`~repro.resilience.DeadlineExceeded` — it is an
        operational failure, never skipped like an inapplicable
        strategy.
        """
        database, calls = self._compare_calls(
            database, strategies, database_fp, options, overrides
        )
        results: dict[str, QueryResult] = {}
        for name, call in calls:
            try:
                results[name] = self.evaluate(query, database, **call)
            except StrategyNotApplicableError:
                if not skip_inapplicable:
                    raise
        return results


def _fold_options(
    strat: EvaluationStrategy, spec: CallSpec, options: Mapping[str, Any]
) -> dict[str, Any]:
    """Fold the resolved ``optimize``/``stats``/``backend`` into options.

    Only strategies declaring ``supports_optimize`` (respectively
    ``supports_stats``, a multi-entry ``backends`` record) receive the
    option (and hence carry it in their cache keys); for the others the
    result cannot depend on it, so leaving it out keeps their keys
    stable and their option validation strict.
    """
    options = dict(options)
    if strat.supports_optimize:
        options["optimize"] = spec.optimize
    if strat.supports_stats:
        options["stats"] = spec.stats
    supported = strat.supported_backends
    if len(supported) > 1:
        options["backend"] = spec.backend
    elif spec.backend == "sqlite":
        # An explicit pushdown demand on an interpreter-only strategy
        # cannot be honoured; raise the skippable error so compare()
        # omits the strategy instead of silently running elsewhere.
        raise StrategyNotApplicableError(
            f"strategy {strat.name!r} supports backends {supported}, "
            "not 'sqlite'; use backend='auto' or backend='interpreter'"
        )
    return options


def _presharded_database(
    database: Database, shards: int | None, partitioner: Any
) -> Database:
    """Partition a session's database up front when ``shards`` asks for it."""
    if shards is None or shards <= 0:
        return database
    from ..sharding.database import ShardedDatabase

    already_matching = (
        isinstance(database, ShardedDatabase)
        and database.shard_count == shards
        and (partitioner is None or partitioner is database.partitioner)
    )
    if already_matching:
        return database
    if partitioner is None and isinstance(database, ShardedDatabase):
        partitioner = database.partitioner
    return ShardedDatabase.from_database(database, shards, partitioner)


class SessionBase:
    """What :class:`Session` and :class:`~repro.engine.aio.AsyncSession`
    share: construction, the fingerprint memo, ``with_database`` and the
    delegation to the bound engine.

    The sugar methods return ``self.evaluate(...)`` — a result on the
    sync session, an awaitable on the async one.
    """

    #: The engine class a session creates when none is shared.
    engine_type: type = Engine
    #: The keywords the constructor accepts besides ``engine``.
    keywords: frozenset = ENGINE_KEYWORDS

    def __init__(self, database: Database, *, engine: Any = None, **settings: Any):
        check_settings(type(self).__name__, settings, self.keywords)
        # Per-session sharding config, honoured even on a shared engine
        # and carried across with_database().
        self._shards = settings.pop("shards", None)
        self._partitioner = settings.pop("partitioner", None)
        self._executor = settings.pop("executor", None)
        self.database = _presharded_database(database, self._shards, self._partitioner)
        self._owns_engine = engine is None
        self.engine = engine or self.engine_type(
            executor=self._executor or "serial", **settings
        )
        self._database_fp: str | None = None

    def _fingerprint(self) -> str:
        if self._database_fp is None:
            self._database_fp = database_fingerprint(self.database)
        return self._database_fp

    def close(self) -> None:
        """Close the engine this session created (shared engines survive)."""
        if self._owns_engine:
            self.engine.close()

    def with_database(self, database: Database):
        """A new session on another database, sharing this session's engine.

        The session's sharding configuration carries over: a plain
        database is re-partitioned to the session's shard count, while a
        database that is already sharded is respected as-is.
        """
        from ..sharding.database import ShardedDatabase

        shards = None if isinstance(database, ShardedDatabase) else self._shards
        session = type(self)(
            database,
            engine=self.engine,
            shards=shards,
            executor=self._executor,
            partitioner=self._partitioner,
        )
        # The chain keeps the originally configured sharding even when
        # this hop received a pre-sharded database (shards=None above
        # only avoids re-partitioning *this* database).
        session._shards = self._shards
        session._partitioner = self._partitioner
        return session

    # ------------------------------------------------------------------
    # Delegation
    # ------------------------------------------------------------------
    def _caching(self, kwargs: Mapping[str, Any]) -> bool:
        """Will this call touch the cache (and hence need the fingerprint)?"""
        return bool(kwargs.get("use_cache", True)) and self.engine.cache_enabled

    def _bound(self, kwargs: dict[str, Any]) -> dict[str, Any]:
        """The call's keywords plus this session's fingerprint/executor."""
        if self._caching(kwargs):
            kwargs.setdefault("database_fp", self._fingerprint())
        if self._executor is not None:
            kwargs.setdefault("executor", self._executor)
        return kwargs

    def evaluate(self, query: Any, **kwargs: Any):
        return self.engine.evaluate(query, self.database, **self._bound(kwargs))

    def evaluate_batch(self, queries: Iterable[Any], **kwargs: Any):
        return self.engine.evaluate_batch(queries, self.database, **self._bound(kwargs))

    def compare(self, query: Any, **kwargs: Any):
        return self.engine.compare(query, self.database, **self._bound(kwargs))

    # Small conveniences mirroring the paper's vocabulary.
    def sql(self, query: Any, **kwargs: Any):
        """SQL-semantics evaluation (strategy ``sql-3vl``)."""
        return self.evaluate(query, strategy="sql-3vl", **kwargs)

    def naive(self, query: Any, **kwargs: Any):
        return self.evaluate(query, strategy="naive", **kwargs)

    def certain(self, query: Any, **kwargs: Any):
        """Exact certain answers (strategy ``exact-certain``)."""
        return self.evaluate(query, strategy="exact-certain", **kwargs)

    def auto(self, query: Any, **kwargs: Any):
        """Planner-chosen evaluation (``strategy="auto"``);
        ``result.metadata["plan"]`` says what was picked and why."""
        return self.evaluate(query, strategy="auto", **kwargs)

    def strategies(self) -> tuple[str, ...]:
        return self.engine.strategies()

    def describe(self) -> dict[str, Any]:
        """The engine's capability table and configuration."""
        return self.engine.describe()

    @property
    def cache_stats(self) -> CacheStats:
        return self.engine.cache_stats

    def clear_cache(self) -> None:
        self.engine.clear_cache()


class Session(SessionBase):
    """An :class:`Engine` bound to one database.

    The session owns the result cache (a fresh engine is created unless
    one is shared explicitly) and memoises the database fingerprint, so
    repeated evaluations of the same query are answered from the cache
    without re-hashing the data.  It accepts every :class:`Engine`
    keyword; ``shards``/``partitioner`` partition the database once up
    front and ``executor`` becomes this session's shard executor.

    A session is a context manager: ``with Session(db) as session:``
    closes the private engine (and hence any worker pools it spawned)
    on exit.  An engine passed in explicitly is *shared* — the session
    never closes it, and the engine-level constructor arguments
    (``cache_size``, ``cache``, ``default_semantics``, ``optimize``,
    ``stats``, ``backend``, ``auto_exact_budget``, ...) are ignored in
    favour of the shared engine's own configuration; pass
    ``optimize=``/``stats=``/``backend=`` per ``evaluate``/``compare``
    call to override it on a shared engine.

    ``cache="disk:/path"`` (or a
    :class:`~repro.engine.cache.CacheBackend` instance) makes results
    survive this session: a later session — or another process — on the
    same directory gets cache hits for unchanged (query, database)
    pairs.
    """

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def explain(self, query: Any, **kwargs: Any) -> str:
        """Evaluate with ``trace=True`` and render the EXPLAIN report.

        Accepts every ``evaluate`` keyword (``strategy="auto"``,
        ``shards=...``, ``backend=...``, ...) and returns one report
        combining the plan decision, backend resolution, sharding and
        resilience notes with the span tree — see
        :mod:`repro.obs.explain`.  Tracing never changes the answer (or
        the cache keys), so explaining a query is exactly as safe as
        evaluating it.
        """
        kwargs["trace"] = True
        return render_explain(self.evaluate(query, **kwargs))


_DEFAULT_ENGINE: Engine | None = None


def default_engine() -> Engine:
    """A process-wide engine for one-off :func:`evaluate` calls."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = Engine()
    return _DEFAULT_ENGINE


def evaluate(query: Any, database: Database, **kwargs: Any) -> QueryResult:
    """Module-level convenience: ``default_engine().evaluate(...)``."""
    return default_engine().evaluate(query, database, **kwargs)
