"""The unified evaluation engine: one Session/Engine API over every strategy.

The paper compares evaluation regimes over incomplete databases — SQL's
three-valued semantics, naïve evaluation, exact certain answers, the
approximation schemes of Figure 2 and the c-table strategies.  This
package exposes all of them behind a single façade::

    from repro.engine import Session

    session = Session(database)
    session.evaluate("SELECT oid FROM Orders", strategy="sql-3vl")
    session.evaluate(algebra_query, strategy="approx-guagliardo16")
    session.evaluate(fo_query, strategy="exact-certain")

Layers:

* :mod:`repro.engine.frontend` — normalization of SQL / algebra /
  calculus inputs into one internal representation (with the Theorem
  4.4 fragment classification of whichever form is richest);
* :mod:`repro.engine.registry` — the ``@register_strategy`` registry and
  the :class:`EvaluationStrategy` extension point;
* :mod:`repro.engine.capabilities` — the declarative
  :class:`StrategyCapabilities` record every strategy describes itself
  with (semantics, consumed forms, exactness/soundness, shardability,
  cost);
* :mod:`repro.engine.planner` — the ``strategy="auto"`` planner picking
  a strategy from the capability table and recording a
  :class:`PlanDecision` in the result metadata;
* :mod:`repro.engine.strategies` — the six built-in strategies;
* :mod:`repro.engine.result` — the unified :class:`QueryResult` with
  per-tuple certainty annotations;
* :mod:`repro.engine.cache` — pluggable result-cache backends
  (:class:`CacheBackend`: the in-memory LRU, or a persistent
  ``cache="disk:/path"`` backend surviving across processes) keyed on
  (query fingerprint, database fingerprint, strategy);
* :mod:`repro.engine.spec` — :class:`CallSpec`, the per-call settings
  (semantics, optimize, stats, backend, deadline, shard-failure and
  retry policy, tracing, sharding, caching) every façade shares;
* :mod:`repro.engine.core` — :class:`Engine` and :class:`Session`, and
  the evaluate pipeline written once as steps;
* :mod:`repro.engine.drive` — the sync and async drivers of those steps;
* :mod:`repro.engine.aio` — :class:`AsyncEngine` and
  :class:`AsyncSession`, which drive the same pipeline from an event
  loop with concurrent batch/compare fan-out over a worker pool.
"""

from .cache import (
    CacheBackend,
    CacheStats,
    DiskCacheBackend,
    MemoryCacheBackend,
    NamespacedCacheBackend,
    ResultCache,
    canonical_option_value,
    canonical_options,
    database_fingerprint,
    evaluation_cache_key,
    resolve_cache_backend,
)
from .capabilities import EXACT_FRAGMENTS_CWA, StrategyCapabilities
from .spec import CallSpec
from .shm_cache import SharedMemoryCacheBackend
from .core import Engine, Session, default_engine, evaluate
from .aio import AsyncEngine, AsyncSession, EngineTask, run_engine_task
from .errors import (
    EngineError,
    NormalizationError,
    StrategyNotApplicableError,
    UnknownStrategyError,
)
from .frontend import NormalizedQuery, normalize_query, query_fingerprint
from .planner import DEFAULT_EXACT_BUDGET, PlanDecision, choose_strategy
from .registry import (
    EvaluationStrategy,
    StrategyOutcome,
    annotate,
    available_strategies,
    get_strategy,
    register_strategy,
    strategy_aliases,
    strategy_capabilities,
    unregister_strategy,
)
from .result import AnnotatedTuple, Certainty, QueryResult

# Importing the module registers the built-in strategies.
from . import strategies as _builtin_strategies  # noqa: F401

__all__ = [
    # Core façade
    "Engine",
    "Session",
    "default_engine",
    "evaluate",
    "CallSpec",
    # Async façade
    "AsyncEngine",
    "AsyncSession",
    "EngineTask",
    "run_engine_task",
    # Results
    "QueryResult",
    "AnnotatedTuple",
    "Certainty",
    # Registry and capabilities
    "EvaluationStrategy",
    "StrategyOutcome",
    "StrategyCapabilities",
    "EXACT_FRAGMENTS_CWA",
    "register_strategy",
    "unregister_strategy",
    "get_strategy",
    "available_strategies",
    "strategy_capabilities",
    "strategy_aliases",
    "annotate",
    # Planner
    "PlanDecision",
    "choose_strategy",
    "DEFAULT_EXACT_BUDGET",
    # Normalization
    "NormalizedQuery",
    "normalize_query",
    "query_fingerprint",
    # Cache backends
    "CacheBackend",
    "MemoryCacheBackend",
    "DiskCacheBackend",
    "SharedMemoryCacheBackend",
    "NamespacedCacheBackend",
    "ResultCache",
    "CacheStats",
    "resolve_cache_backend",
    "database_fingerprint",
    "evaluation_cache_key",
    "canonical_options",
    "canonical_option_value",
    # Errors
    "EngineError",
    "UnknownStrategyError",
    "StrategyNotApplicableError",
    "NormalizationError",
]
