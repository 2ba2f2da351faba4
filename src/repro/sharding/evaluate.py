"""Sharded evaluation: orchestrate shard plans, caching and merging.

This is the engine's step for a query on a
:class:`~repro.sharding.database.ShardedDatabase` (or with ``shards=``),
written once as pipeline steps (:mod:`repro.engine.drive`) that both the
sync and the async engine drive.  The flow:

1. read the strategy's shard-distribution declaration from its
   :class:`~repro.engine.capabilities.StrategyCapabilities` record
   (``shardable_ops``/``shardable_bag_ops`` + the ``shard_merge`` name
   resolved through :data:`SHARD_MERGES`); strategies that declare no
   lineage operators — because their correctness argument does not
   survive horizontal partitioning (``sql-3vl`` plans from the SQL text,
   not from the shard planner's algebra, ``exact-certain`` and ``ctables`` intersect over valuations — a
   union of per-fragment intersections under-approximates — and Figure
   2a builds ``Dom^k`` complements whose per-fragment union
   over-approximates ``Qf``) — are evaluated **coalesced**:
   monolithically on the union view, which the sharded database *is*;
2. rewrite the plan via :func:`repro.sharding.planner.shard_plan` with
   the strategy's allowed lineage operators, falling back to coalesced
   evaluation for non-distributive plans (difference, division, ...);
3. per shard, probe the engine's result cache under a key built from the
   rewritten-plan fingerprint and the *fragment* fingerprints of the
   sharded relations (plus the full fingerprints of broadcast
   relations), so mutating one shard invalidates only its partial;
4. fan the cache misses out as :class:`~repro.engine.workers.Task`
   objects (the rewritten plan is normalized once, here) through the
   shard worker pool under the resilience contract
   (:func:`repro.engine.drive.run_tasks`) and merge the per-shard
   :class:`~repro.engine.registry.StrategyOutcome` objects with the
   strategy-specific merge function, reproducing exactly what the
   monolithic strategy would have returned.

The call's ``optimize``/``stats``/``backend`` settings ride along in the
task options (and hence in the partial cache keys), so each fragment's
plan is optimized inside the strategy call over the statistics of the
shard it actually sees.  The merged :class:`~repro.engine.result.QueryResult`
is result-identical to monolithic evaluation — the randomized harness in
``tests/test_differential.py`` enforces this for every
registered strategy — and differs only in its ``metadata["sharding"]``
entry.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from ..datamodel.database import Database
from ..datamodel.relation import Relation
from ..engine.cache import ResultCache, canonical_options, database_fingerprint
from ..engine.capabilities import StrategyCapabilities
from ..engine.drive import Dispatch, run_tasks
from ..engine.errors import EngineError
from ..engine.frontend import NormalizedQuery, normalize_query
from ..engine.registry import EvaluationStrategy, StrategyOutcome, annotate
from ..engine.result import AnnotatedTuple, Certainty, QueryResult
from ..engine.workers import Task, TaskResult, WorkerPool
from ..obs import metrics as obs_metrics
from ..obs.trace import SpanContext, span
from ..resilience import DeadlineExceeded
from .database import ShardedDatabase, shard_relation_name
from .planner import NonDistributableError, ShardPlan, shard_plan

if TYPE_CHECKING:
    from ..engine.core import PreparedCall

__all__ = [
    "SHARD_MERGES",
    "register_shard_merge",
    "evaluate_sharded",
]

MergeFn = Callable[..., StrategyOutcome]


# ----------------------------------------------------------------------
# Merging partial results (must mirror the strategies' own outcomes)
# ----------------------------------------------------------------------
def _union_relations(relations: Sequence[Relation], *, bag: bool) -> Relation:
    attributes = relations[0].attributes
    if bag:
        combined: Counter = Counter()
        for relation in relations:
            combined.update(relation.rows_bag())
        return Relation.from_counter(attributes, combined)
    rows: set = set()
    for relation in relations:
        rows |= relation.rows_set()
    return Relation(attributes, rows)


def merge_naive(
    partials: Sequence[StrategyOutcome],
    *,
    semantics: str,
    database: Database,
    normalized: NormalizedQuery | None = None,
    strategy: EvaluationStrategy | None = None,
) -> StrategyOutcome:
    """Union of per-shard naïve answers (bag-additive under bags).

    Mirrors :class:`repro.engine.strategies.NaiveStrategy`, including
    the Theorem 4.4 exactness claim: the merged answer is exact when the
    coalesced database is complete or the query's fragment is one the
    strategy declares ``exact_on`` — the same capability record the
    monolithic path consults, so distributed and monolithic results stay
    tuple-for-tuple identical (annotations and side relations included).
    """
    bag = semantics == "bag"
    answer = _union_relations([p.answer for p in partials], bag=bag)
    fragment = normalized.fragment if normalized is not None else None
    exact = database.is_complete() or (
        strategy is not None
        and strategy.capabilities is not None
        and strategy.capabilities.exact_on_fragment(fragment)
    )
    status = Certainty.CERTAIN if exact else Certainty.POSSIBLE
    return StrategyOutcome(
        answer=answer,
        annotated=annotate(answer, status, bag=bag),
        certain=answer if exact else None,
        metadata={"fragment": fragment, "exact": exact},
    )


def merge_guagliardo16(
    partials: Sequence[StrategyOutcome],
    *,
    semantics: str,
    database: Database,
    normalized: NormalizedQuery | None = None,
    strategy: EvaluationStrategy | None = None,
) -> StrategyOutcome:
    """Union the per-shard (Q+, Q?) pairs.

    Both translations are compositional along σ/π/ρ/×/∪, so the union of
    the per-fragment certain (resp. possible) answers is exactly the
    monolithic ``Q+`` (resp. ``Q?``) answer.
    """
    certain = _union_relations([p.certain for p in partials], bag=False)
    possible = _union_relations([p.possible for p in partials], bag=False)
    annotated = annotate(certain, Certainty.CERTAIN) + tuple(
        AnnotatedTuple(row, Certainty.POSSIBLE)
        for row in possible.sorted_rows()
        if row not in certain
    )
    return StrategyOutcome(
        answer=certain,
        annotated=annotated,
        certain=certain,
        possible=possible,
        metadata={"scheme": "figure-2b"},
    )


#: Named merge functions resolvable from a strategy's declarative
#: ``capabilities.shard_merge`` entry (capability records carry names,
#: never callables).  Third-party strategies register theirs through
#: :func:`register_shard_merge`.
SHARD_MERGES: dict[str, MergeFn] = {
    "naive-union": merge_naive,
    "certain-possible-union": merge_guagliardo16,
}


def register_shard_merge(name: str, merge: MergeFn) -> None:
    """Register a merge function under a capability-referencable name.

    The function receives ``(partials, *, semantics, database,
    normalized, strategy)`` and must return a
    :class:`~repro.engine.registry.StrategyOutcome` mirroring what the
    monolithic strategy would have produced.
    """
    SHARD_MERGES[name] = merge


#: Merge names whose output over a *subset* of partials is a subset of
#: the full merge — the structural half of the ``"degrade"`` gate (both
#: built-in merges are plain unions, hence monotone in their inputs).
_DEGRADABLE_MERGES = frozenset({"naive-union", "certain-possible-union"})

#: Query fragments preserved under sub-databases: for monotone queries
#: ``Q(D') ⊆ Q(D)`` whenever ``D' ⊆ D``, so answers over the surviving
#: shards alone are a sound subset of the fault-free answer.
_MONOTONE_FRAGMENTS = frozenset({"CQ", "UCQ"})


def _shard_merge(strategy: EvaluationStrategy) -> MergeFn | None:
    """The merge of a strategy that declares shard lineage, else None."""
    caps = strategy.capabilities
    if not caps.shardable_ops or caps.shard_merge is None:
        return None
    return SHARD_MERGES.get(caps.shard_merge)


def _degrade_blocker(
    caps: StrategyCapabilities, normalized: NormalizedQuery
) -> str | None:
    """Why ``on_shard_error="degrade"`` is not sound here (None = it is).

    Both halves of the gate must hold: the merge must be union-style
    (subset of partials ⇒ subset of the merge) *and* the query fragment
    must be monotone (subset of the data ⇒ subset of the answer).
    Non-monotone plans (difference, division) can return *wrong* rows —
    not merely fewer — when a shard's data goes missing, so they are
    never degraded.
    """
    if caps.shard_merge not in _DEGRADABLE_MERGES:
        return "the strategy's shard merge does not tolerate missing shards"
    fragment = normalized.fragment
    if fragment not in _MONOTONE_FRAGMENTS:
        return (
            f"query fragment {fragment!r} is not monotone "
            "(degradation is sound only for CQ/UCQ)"
        )
    return None


# ----------------------------------------------------------------------
# Cache keys
# ----------------------------------------------------------------------
def _shard_data_fingerprint(
    database: ShardedDatabase,
    shard: int,
    plan: ShardPlan,
    full_fp: str | None,
) -> str:
    """Hash of exactly the data this shard's partial result depends on."""
    hasher = hashlib.sha1()
    for name in plan.sharded_relations:
        hasher.update(
            f"fragment:{name!r}@{shard}:"
            f"{database.fragment_fingerprint(name, shard)}\n".encode("utf-8")
        )
    for name in plan.broadcast_relations:
        hasher.update(
            f"broadcast:{name!r}:{database.relation_fingerprint(name)}\n".encode(
                "utf-8"
            )
        )
    if plan.uses_domain:
        # Dom^k ranges over the whole active domain: key conservatively
        # on the full database content.
        hasher.update(f"domain:{full_fp}\n".encode("utf-8"))
    return hasher.hexdigest()


def _task_database(
    database: ShardedDatabase, shard: int, plan: ShardPlan
) -> Database:
    """The smallest database a shard task needs (cheap to pickle).

    Plans containing ``Dom^k`` get the complete shard view so the active
    domain matches the monolithic one; everything else gets only the
    relations the rewritten plan actually reads.
    """
    if plan.uses_domain:
        return database.shard_view(shard)
    relations = {
        name: database[name] for name in plan.broadcast_relations
    }
    for name in plan.sharded_relations:
        relations[shard_relation_name(name)] = database.fragment(name, shard)
    return Database(relations)


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------
@dataclass
class _PlannedShardedCall:
    """A distributable call, cache-probed and ready for its executor."""

    merge: MergeFn
    plan: ShardPlan
    partials: list  # StrategyOutcome | None per shard; cached ones filled in
    tasks: list[Task]
    hits: int
    start: float


def _plan_sharded_call(
    call: "PreparedCall",
) -> "tuple[str, None] | tuple[None, _PlannedShardedCall]":
    """Plan one sharded call: ``(reason, None)`` means coalesced fallback."""
    strategy, normalized, database = call.strategy, call.normalized, call.database
    semantics, options, cache = call.spec.semantics, call.options, call.cache
    merge = _shard_merge(strategy)
    if merge is None:
        return f"strategy {strategy.name!r} is not shard-aware", None
    if normalized.algebra is None:
        return (
            "no relational algebra plan to distribute "
            f"({'; '.join(normalized.notes) or normalized.frontend + ' frontend'})",
            None,
        )
    try:
        plan = shard_plan(normalized.algebra, strategy.capabilities.ops_for(semantics))
    except NonDistributableError as exc:
        return str(exc), None

    start = time.perf_counter()
    count = database.shard_count
    # Only cache keys need the canonical rendering; with caching off,
    # exotic option values stay usable (the use_cache=False escape
    # hatch canonical_option_value's error message recommends).
    options_key = canonical_options(options) if cache is not None else ()
    rewritten = normalize_query(plan.plan)
    full_fp = None
    if plan.uses_domain and cache is not None:
        full_fp = call.database_fp or database_fingerprint(database)

    partials: list[StrategyOutcome | None] = [None] * count
    tasks: list[Task] = []
    hits = 0
    # Captured once for the whole fan-out: every shard task links back
    # to the same ambient span (None when the call is untraced).
    trace_ctx = SpanContext.capture()
    with span("shard.plan", shards=count) as planning:
        for shard in range(count):
            key = None
            if cache is not None:
                key = (
                    "shard-partial",
                    rewritten.fingerprint,
                    strategy.name,
                    semantics,
                    options_key,
                    _shard_data_fingerprint(database, shard, plan, full_fp),
                )
                cached = cache.get(key)
                if cached is not None:
                    partials[shard] = cached
                    hits += 1
                    continue
            tasks.append(
                Task(
                    normalized=rewritten,
                    database=_task_database(database, shard, plan),
                    strategy=strategy.name,
                    semantics=semantics,
                    options=tuple(options.items()),
                    deadline=call.deadline,
                    trace=trace_ctx,
                    shard=shard,
                    cache_key=key,
                )
            )
        if hits:
            planning.incr("partial_cache_hits", hits)
        if tasks:
            planning.incr("partial_cache_misses", len(tasks))
    return None, _PlannedShardedCall(
        merge=merge, plan=plan, partials=partials, tasks=tasks, hits=hits, start=start
    )


def _coalesced_result(
    result: QueryResult, database: ShardedDatabase, reason: str | None
) -> QueryResult:
    sharding_meta = {
        "mode": "coalesced",
        "shards": database.shard_count,
        "reason": reason,
    }
    return replace(result, metadata={**result.metadata, "sharding": sharding_meta})


def _absorb_partials(
    planned: _PlannedShardedCall,
    computed: Sequence[TaskResult | None],
    cache: ResultCache | None,
) -> None:
    # A ``None`` hole is a shard that failed under
    # ``on_shard_error="degrade"``: it contributes nothing to the merge
    # and — crucially — is never cached, so a fault can only *miss* the
    # partial cache, never poison it.
    for task, result in zip(planned.tasks, computed):
        if result is None:
            continue
        planned.partials[task.shard] = result.outcome
        if cache is not None and task.cache_key is not None:
            cache.put(task.cache_key, result.outcome)


def _merged_backend_metadata(partials: Sequence[StrategyOutcome]) -> dict[str, Any]:
    """Aggregate the per-shard backend decisions into one metadata note.

    Merge functions rebuild outcome metadata from scratch, so the
    execution-backend decision each shard's strategy call recorded
    (``metadata["backend"]`` — see :mod:`repro.exec`) would be lost.
    When every shard resolved to the same backend the shared note is
    reused; shards that diverged (e.g. one fragment held a value the SQL
    compiler cannot encode) are reported as ``resolved: "mixed"``.
    """
    notes = [p.metadata.get("backend") for p in partials if p.metadata]
    notes = [note for note in notes if note]
    if not notes:
        return {}
    if len({note.get("resolved") for note in notes}) == 1:
        return {"backend": dict(notes[0])}
    return {
        "backend": {
            "requested": notes[0].get("requested"),
            "resolved": "mixed",
            "reason": "shards resolved different backends",
        }
    }


def _finish_sharded(
    planned: _PlannedShardedCall,
    call: "PreparedCall",
    executor_kind: str,
    failures: Mapping[int, str],
    retries: int,
) -> QueryResult:
    strategy, semantics, database = call.strategy, call.spec.semantics, call.database
    count = database.shard_count
    surviving = [p for p in planned.partials if p is not None]
    if not surviving:
        raise EngineError(
            "every shard failed; nothing to degrade to "
            f"(failures: {dict(failures)})"
        )
    with span(
        "shard.merge", merge=getattr(planned.merge, "__name__", "merge")
    ) as merging:
        outcome = planned.merge(
            surviving,
            semantics=semantics,
            database=database,
            normalized=call.normalized,
            strategy=strategy,
        )
        merging.incr("rows_out", len(outcome.answer))
    elapsed = time.perf_counter() - planned.start
    obs_metrics.incr(
        "sharding.evaluations", strategy=strategy.name, executor=executor_kind
    )
    if planned.hits:
        obs_metrics.incr("sharding.partial_cache_hits", planned.hits)
    if planned.tasks:
        obs_metrics.incr("sharding.partial_cache_misses", len(planned.tasks))
    if retries:
        obs_metrics.incr("sharding.retries", retries)
    if failures:
        obs_metrics.incr("sharding.degraded_shards", len(failures))
    sharding_meta = {
        "mode": "distributed",
        "shards": count,
        "executor": executor_kind,
        "partial_cache_hits": planned.hits,
        "sharded_relations": list(planned.plan.sharded_relations),
        "broadcast_relations": list(planned.plan.broadcast_relations),
    }
    metadata = {
        **outcome.metadata,
        **_merged_backend_metadata(surviving),
        "sharding": sharding_meta,
    }
    if retries:
        metadata["resilience"] = {"retries": retries}
    if failures:
        # A degraded merge is an under-approximation, never an exact
        # answer — and with the naïve merge the "exact" claim (Theorem
        # 4.4) only covers the full database, so it is withdrawn here.
        metadata["degraded"] = {
            "failed_shards": sorted(failures),
            "errors": {shard: failures[shard] for shard in sorted(failures)},
            "surviving_shards": count - len(failures),
            "guarantee": "sound-subset",
        }
        if metadata.get("exact"):
            metadata["exact"] = False
    return QueryResult(
        strategy=strategy.name,
        semantics=semantics,
        relation=outcome.answer,
        tuples=outcome.annotated,
        certain=outcome.certain,
        possible=outcome.possible,
        certainly_false=outcome.certainly_false,
        elapsed=elapsed,
        from_cache=not planned.tasks and count > 0,
        fingerprint=call.normalized.fingerprint,
        metadata=metadata,
    )


def evaluate_sharded(
    call: "PreparedCall",
    *,
    executor: WorkerPool,
    coalesced: Callable[[], Any],
):
    """Evaluate a prepared call on its sharded database (pipeline steps).

    ``coalesced`` returns the engine's monolithic steps for the call; it
    runs whenever the (strategy, plan, semantics) combination does not
    distribute.  The fan-out is a :class:`~repro.engine.drive.Dispatch`
    of :func:`~repro.engine.drive.run_tasks` under the call's deadline,
    retry policy and ``on_shard_error``.  ``"degrade"`` is
    capability-gated: when the merge or the query's fragment cannot
    guarantee a sound subset (:func:`_degrade_blocker`), shard failures
    are retried but a persistent failure raises — wrapped in an
    :class:`~repro.engine.errors.EngineError` naming the blocker, so the
    caller learns *why* degradation was unavailable.
    """
    reason, planned = _plan_sharded_call(call)
    if planned is None:
        return _coalesced_result((yield from coalesced()), call.database, reason)
    failures: dict[int, str] = {}
    retries = 0
    if planned.tasks:
        on_error = call.spec.on_shard_error
        blocker = (
            _degrade_blocker(call.strategy.capabilities, call.normalized)
            if on_error == "degrade"
            else None
        )
        with span(
            "shard.fanout", executor=executor.kind, tasks=len(planned.tasks)
        ) as fanout:
            try:
                computed, failed, retries = yield Dispatch(
                    run_tasks(
                        executor,
                        planned.tasks,
                        deadline=call.deadline,
                        retry=call.spec.retry,
                        on_error="retry" if blocker is not None else on_error,
                    )
                )
            except DeadlineExceeded:
                raise
            except Exception as exc:
                if blocker is None:
                    raise
                raise EngineError(
                    f"shard failed and on_shard_error='degrade' is unavailable: "
                    f"{blocker}"
                ) from exc
            if retries:
                fanout.incr("retries", retries)
        failures = {planned.tasks[i].shard: error for i, error in failed.items()}
        _absorb_partials(planned, computed, call.cache)
    return _finish_sharded(planned, call, executor.kind, failures, retries)
