"""Sharded evaluation: orchestrate shard plans, caching and merging.

This is the engine's step for a query on a
:class:`~repro.sharding.database.ShardedDatabase` (or with ``shards=``),
written once as pipeline steps (:mod:`repro.engine.drive`) that both the
sync and the async engine drive.  The flow:

1. read the strategy's shard-distribution declaration from its
   :class:`~repro.engine.capabilities.StrategyCapabilities` record
   (``shardable_ops``/``shardable_bag_ops``: a strategy is shard-aware
   exactly when it declares them); strategies that declare no
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
   (:func:`repro.engine.drive.run_tasks`);
5. merge: union each relation field of the shards' unfinished
   :class:`~repro.engine.registry.StrategyOutcome` objects
   (bag-additively under bags) and hand the union to the strategy's own
   :meth:`~repro.engine.registry.EvaluationStrategy.finish` once, on the
   coalesced database.  The annotations and the exactness claim (naïve
   evaluation's Theorem 4.4, the Figure 2b pair) are thereby built by
   the same code as on the monolithic path; a shard's own completeness
   never reaches the claim.

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
from ..engine.cache import CacheBackend, canonical_options, database_fingerprint
from ..engine.drive import Dispatch, run_tasks
from ..engine.errors import EngineError
from ..engine.frontend import NormalizedQuery, normalize_query
from ..engine.registry import StrategyOutcome
from ..engine.result import QueryResult
from ..engine.workers import Task, TaskResult, WorkerPool
from ..obs import metrics as obs_metrics
from ..obs.trace import SpanContext, span
from ..resilience import DeadlineExceeded, armed_plan
from .database import ShardedDatabase, shard_relation_name
from .planner import NonDistributableError, ShardPlan, shard_plan

if TYPE_CHECKING:
    from ..engine.core import PreparedCall

__all__ = ["evaluate_sharded"]

#: The relation fields of a :class:`StrategyOutcome` a merge unions.
_RELATION_FIELDS = ("answer", "certain", "possible", "certainly_false")


# ----------------------------------------------------------------------
# Merging partial results
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


def _merge_partials(
    partials: Sequence[StrategyOutcome], *, bag: bool
) -> StrategyOutcome:
    """Union the shards' unfinished outcomes, field by field.

    Each relation field is unioned (bag-additively under bags) and kept
    only when every partial has one; the backend notes are merged by
    :func:`_merged_backend_metadata`.  The shard planner's lineage
    rewrite makes the union of every field exactly the monolithic
    relation (σ/π/ρ/×/∪ and, for naïve evaluation, ⋈/⋉/∩ distribute
    over a partition of the lineage), so what is left to do is what the
    strategy's own ``finish`` does with a monolithic outcome.
    """
    fields = {}
    for name in _RELATION_FIELDS:
        relations = [getattr(partial, name) for partial in partials]
        if all(relation is not None for relation in relations):
            fields[name] = _union_relations(relations, bag=bag)
    return StrategyOutcome(**fields, metadata=_merged_backend_metadata(partials))


#: Query fragments preserved under sub-databases: for monotone queries
#: ``Q(D') ⊆ Q(D)`` whenever ``D' ⊆ D``, so answers over the surviving
#: shards alone are a sound subset of the fault-free answer.
_MONOTONE_FRAGMENTS = frozenset({"CQ", "UCQ"})


def _degrade_blocker(normalized: NormalizedQuery) -> str | None:
    """Why ``on_shard_error="degrade"`` is not sound here (None = it is).

    Every merge is a union, so a subset of the partials merges to a
    subset of the full merge; what remains is that the query fragment
    must be monotone (subset of the data ⇒ subset of the answer).
    Non-monotone plans (difference, division) can return *wrong* rows —
    not merely fewer — when a shard's data goes missing, so they are
    never degraded.
    """
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
    if not strategy.capabilities.shardable_ops:
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
    # to the same ambient span (None when the call is untraced) and
    # carries the same armed fault plan.
    trace_ctx = SpanContext.capture()
    faults = armed_plan()
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
                    strategy=strategy,
                    semantics=semantics,
                    options=tuple(options.items()),
                    deadline=call.deadline,
                    trace=trace_ctx,
                    faults=faults,
                    shard=shard,
                    cache_key=key,
                )
            )
        if hits:
            planning.incr("partial_cache_hits", hits)
        if tasks:
            planning.incr("partial_cache_misses", len(tasks))
    return None, _PlannedShardedCall(
        plan=plan, partials=partials, tasks=tasks, hits=hits, start=start
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
    cache: CacheBackend | None,
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

    The note rides on the merged outcome into the strategy's ``finish``,
    which keeps it like the note of a monolithic run.  When every shard
    resolved to the same backend the shared note is reused; shards that
    diverged (e.g. one fragment held a value the SQL compiler cannot
    encode) are reported as ``resolved: "mixed"``.
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
    with span("shard.merge", strategy=strategy.name) as merging:
        outcome = strategy.finish(
            _merge_partials(surviving, bag=semantics == "bag"),
            database=database,
            normalized=call.normalized,
            semantics=semantics,
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
    metadata = {**outcome.metadata, "sharding": sharding_meta}
    if retries:
        metadata["resilience"] = {"retries": retries}
    if failures:
        # A degraded merge is an under-approximation, never an exact
        # answer — and naïve evaluation's "exact" claim (Theorem 4.4)
        # only covers the full database, so it is withdrawn here.
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
    retry policy and ``on_shard_error``.  ``"degrade"`` is gated on
    the query's fragment: when it is not monotone, the survivors' union
    is no sound subset (:func:`_degrade_blocker`), so shard failures
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
            _degrade_blocker(call.normalized)
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
