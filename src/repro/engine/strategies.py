"""The built-in evaluation strategies behind ``Engine.evaluate``.

Each class adapts one of the repo's evaluation pipelines to the registry
contract, so the paper's whole comparison matrix is reachable through a
single call:

==========================  ====================================================
``sql-3vl``                 SQL's three-valued semantics (an exact 3VL plan
                            from :func:`repro.sql.compiler.compile_sql_3vl`,
                            else :mod:`repro.sql.evaluator`;
                            :func:`repro.mvl.fo_sql` for calculus input)
``naive``                   naïve evaluation, nulls as values
                            (:mod:`repro.incomplete.naive`)
``exact-certain``           brute-force certain answers
                            (:mod:`repro.incomplete.certain`)
``approx-libkin16``         the (Qt, Qf) rewriting of Figure 2a
                            (:mod:`repro.approx.libkin16`)
``approx-guagliardo16``     the (Q+, Q?) rewriting of Figure 2b
                            (:mod:`repro.approx.guagliardo16`)
``ctables``                 the grounding strategies over c-tables
                            (:mod:`repro.ctables.strategies`)
==========================  ====================================================
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from ..ctables.strategies import STRATEGIES as CTABLE_VARIANTS
from ..ctables.strategies import run_strategy as run_ctable_strategy
from ..datamodel.database import Database
from ..incomplete.certain import (
    certain_answers_intersection,
    certain_answers_with_nulls,
    possible_answers,
)
from ..exec import InterpreterBackend, execute_plans, interpreter_note
from ..incomplete.naive import naive_evaluate, naive_evaluate_direct
from ..approx.guagliardo16 import translate_guagliardo16
from ..approx.libkin16 import translate_libkin16
from ..mvl.fo_eval import fo_sql
from ..sql.compiler import SqlCompilationError, compile_sql_3vl
from ..sql.evaluator import SqlEvaluator
from .capabilities import EXACT_FRAGMENTS_CWA, StrategyCapabilities
from .errors import EngineError, StrategyNotApplicableError
from .frontend import NormalizedQuery
from .registry import (
    EvaluationStrategy,
    StrategyOutcome,
    annotate,
    register_strategy,
)
from .result import AnnotatedTuple, Certainty

#: Operators the shard planner may keep on the partitioned lineage for a
#: literal (naïve) evaluator under set semantics; see
#: :mod:`repro.sharding.planner` for the distribution argument per rule.
_NAIVE_SHARD_OPS = frozenset(
    {
        "Selection",
        "Projection",
        "Rename",
        "Product",
        "Union",
        "Intersection",
        "NaturalJoin",
        "SemiJoin",
    }
)

#: Under bag semantics ``min``-intersection does not distribute.
_NAIVE_BAG_SHARD_OPS = _NAIVE_SHARD_OPS - {"Intersection"}

#: Operators preserved one-to-one by the Figure 2 translations.
_TRANSLATION_SHARD_OPS = frozenset(
    {"Selection", "Projection", "Rename", "Product", "Union"}
)

#: Plan operators the Figure 2 translations are defined on: the core
#: algebra plus what :func:`repro.approx.normalize.normalize_for_translation`
#: rewrites into it (∩ → −).  Division and the join conveniences raise
#: there, so the engine's ``plan_ops`` gate keeps such plans away.
_TRANSLATION_PLAN_OPS = frozenset(
    {
        "RelationRef",
        "ConstantRelation",
        "DomainRelation",
        "Selection",
        "Projection",
        "Rename",
        "Product",
        "Union",
        "Difference",
        "Intersection",
    }
)

#: Plan operators the conditional (c-table) evaluator implements — the
#: core algebra without ``DomainRelation`` (grounding would have to
#: enumerate it symbolically) and without the join/semijoin
#: conveniences.
_CTABLES_PLAN_OPS = frozenset(
    {
        "RelationRef",
        "ConstantRelation",
        "Selection",
        "Projection",
        "Rename",
        "Product",
        "Union",
        "Difference",
        "Intersection",
    }
)

def _interpreter_only(backend: str, reason: str) -> dict[str, str]:
    """Backend metadata for a path with no plan to push into SQLite.

    Unlike :func:`repro.exec.interpreter_note`, an explicit
    ``backend="sqlite"`` raises the skippable not-applicable error, so
    ``compare()`` omits the strategy instead of failing.
    """
    if backend == "sqlite":
        raise StrategyNotApplicableError(
            f"backend='sqlite' is not available here: {reason}; "
            "use backend='auto' or backend='interpreter'"
        )
    return interpreter_note(backend, reason)


__all__ = [
    "SqlThreeValuedStrategy",
    "NaiveStrategy",
    "ExactCertainStrategy",
    "Libkin16Strategy",
    "Guagliardo16Strategy",
    "CTablesStrategy",
]


@register_strategy("sql-3vl", aliases=("sql", "3vl"))
class SqlThreeValuedStrategy(EvaluationStrategy):
    """What a real SQL engine returns: three-valued WHERE, bag semantics.

    SQL input is lowered by :func:`repro.sql.compiler.compile_sql_3vl` to
    a plan the shared pipeline (optimizer, statistics, SQLite pushdown)
    evaluates in ``condition_mode="3vl"`` with exactly the evaluator's
    answer; a query the lowering cannot prove exact runs on
    :class:`~repro.sql.evaluator.SqlEvaluator` instead, and
    ``metadata["evaluator"]``/``["fallback"]`` say which ran and why.
    """

    capabilities = StrategyCapabilities(
        semantics=("set", "bag"),
        requires=("sql", "calculus"),
        bag_requires=("sql",),  # the FO evaluator is set-based
        optimize=True,
        stats=True,
        backends=("interpreter", "sqlite"),
        cost="polynomial",
        # No certainty bounds: SQL answers may miss certain answers and
        # include certainly-false ones (Section 1).
    )
    description = "SQL three-valued evaluation (the paper's Section 1 baseline)"

    def run(self, query: NormalizedQuery, database: Database, *, semantics: str, **options):
        optimize = bool(options.pop("optimize", False))
        stats = bool(options.pop("stats", False))
        backend = str(options.pop("backend", "interpreter"))
        self.reject_unknown_options(options)
        bag = semantics == "bag"
        if query.sql_ast is not None:
            relation, metadata = self._run_sql(
                query.sql_ast, database, bag=bag, backend=backend,
                optimize=optimize, stats=stats,
            )
        elif query.fo is not None:
            if bag:
                raise StrategyNotApplicableError(
                    "sql-3vl over a calculus query supports set semantics only"
                )
            backend_meta = _interpreter_only(backend, "calculus input runs on fo_sql")
            relation = fo_sql().answers(query.fo.formula, database, query.fo.free)
            metadata = {"evaluator": "fo-sql", "backend": backend_meta}
        else:
            raise StrategyNotApplicableError(
                "strategy 'sql-3vl' needs an SQL query or an FO formula; a bare "
                "algebra plan has no three-valued reading (use 'naive' or the "
                "approximation strategies)"
            )
        # SQL's answers carry no guarantee on incomplete data: they may miss
        # certain answers and include certainly-false ones (Section 1).
        status = Certainty.CERTAIN if database.is_complete() else Certainty.UNKNOWN
        return StrategyOutcome(
            answer=relation,
            annotated=annotate(relation, status, bag=bag),
            metadata=metadata,
        )

    def _run_sql(
        self, sql_ast, database: Database, *,
        bag: bool, backend: str, optimize: bool, stats: bool,
    ):
        try:
            plan = compile_sql_3vl(sql_ast, database.schema(), bag=bag)
        except SqlCompilationError as exc:
            backend_meta = _interpreter_only(
                backend, f"the SQL evaluator runs this query ({exc})"
            )
            relation = SqlEvaluator(database).run(sql_ast)
            return relation if bag else relation.distinct(), {
                "evaluator": "sql-evaluator",
                "fallback": str(exc),
                "backend": backend_meta,
            }
        execution = execute_plans(
            [plan],
            database,
            backend=backend,
            bag=bag,
            condition_mode="3vl",
            optimize=optimize,
            stats=stats,
            strategy=self.name,
        )
        metadata = {"evaluator": "plan", "backend": execution.as_metadata()}
        return execution.relations[0], metadata


@register_strategy("naive", aliases=("naive-direct",))
class NaiveStrategy(EvaluationStrategy):
    """Naïve evaluation: nulls as ordinary values (Section 4.1)."""

    capabilities = StrategyCapabilities(
        semantics=("set", "bag"),
        requires=("algebra", "calculus"),
        bag_requires=("algebra",),  # the FO evaluator is set-based
        exact_on=EXACT_FRAGMENTS_CWA,
        optimize=True,
        stats=True,
        backends=("interpreter", "sqlite"),
        shardable_ops=_NAIVE_SHARD_OPS,
        shardable_bag_ops=_NAIVE_BAG_SHARD_OPS,
        cost="polynomial",
    )
    description = "naïve evaluation; exact on the fragments of Theorem 4.4"

    def run(self, query: NormalizedQuery, database: Database, *, semantics: str, **options):
        textbook = bool(options.pop("textbook", False))
        optimize = bool(options.pop("optimize", False))
        stats = bool(options.pop("stats", False))
        backend = str(options.pop("backend", "interpreter"))
        self.reject_unknown_options(options)
        target = self.require_executable(query)
        bag = semantics == "bag"
        if bag and query.algebra is None:
            raise StrategyNotApplicableError(
                "naïve bag semantics needs a relational algebra plan; the FO "
                "evaluator is set-based"
            )
        if textbook:
            backend_meta = interpreter_note(
                backend, "textbook valuation evaluation is interpreter-only"
            )
            relation = naive_evaluate(
                target, database, bag=bag, optimize=optimize, stats=stats
            )
        elif query.algebra is None:
            backend_meta = interpreter_note(
                backend, "no algebra plan (direct FO evaluation)"
            )
            relation = naive_evaluate_direct(
                target, database, bag=bag, optimize=optimize, stats=stats
            )
        else:
            execution = execute_plans(
                [target],
                database,
                backend=backend,
                bag=bag,
                condition_mode="naive",
                optimize=optimize,
                stats=stats,
                strategy=self.name,
            )
            relation = execution.relations[0]
            backend_meta = execution.as_metadata()
        return StrategyOutcome(answer=relation, metadata={"backend": backend_meta})

    def finish(
        self, outcome: StrategyOutcome, *, database: Database,
        normalized: NormalizedQuery, semantics: str,
    ) -> StrategyOutcome:
        # Theorem 4.4 (CWA): on the declared fragments — classified for
        # calculus and algebra/SQL frontends alike by normalize_query —
        # the naïve answer is exactly the set of certain answers.  The
        # claim reads only the answer and the whole database, never an
        # incoming ``certain``: a shard's completeness says nothing
        # about the coalesced database.
        exact = database.is_complete() or self.capabilities.exact_on_fragment(
            normalized.fragment
        )
        status = Certainty.CERTAIN if exact else Certainty.POSSIBLE
        return replace(
            outcome,
            annotated=annotate(outcome.answer, status, bag=semantics == "bag"),
            certain=outcome.answer if exact else None,
            metadata={
                "fragment": normalized.fragment,
                "exact": exact,
                **outcome.metadata,
            },
        )


@register_strategy("exact-certain", aliases=("certain", "exact"))
class ExactCertainStrategy(EvaluationStrategy):
    """Exact certain answers by valuation enumeration (Section 3.2)."""

    capabilities = StrategyCapabilities(
        semantics=("set",),
        requires=("algebra", "calculus"),
        sound=True,
        complete=True,
        optimize=True,
        cost="exponential",
    )
    description = "brute-force cert⊥ / cert∩; exponential, small instances only"

    def run(self, query: NormalizedQuery, database: Database, *, semantics: str, **options):
        variant = options.pop("variant", "with-nulls")
        extra_fresh = options.pop("extra_fresh", None)
        with_possible = bool(options.pop("with_possible", False))
        optimize = bool(options.pop("optimize", False))
        self.reject_unknown_options(options)
        target = self.require_executable(query)
        valuations: dict = {}
        if variant == "with-nulls":
            relation = certain_answers_with_nulls(
                target, database, extra_fresh=extra_fresh, optimize=optimize,
                counts=valuations,
            )
        elif variant == "intersection":
            relation = certain_answers_intersection(
                target, database, extra_fresh=extra_fresh, optimize=optimize,
                counts=valuations,
            )
        else:
            raise EngineError(
                f"unknown exact-certain variant {variant!r}; "
                "expected 'with-nulls' or 'intersection'"
            )
        annotated = annotate(relation, Certainty.CERTAIN)
        possible = None
        if with_possible:
            possible = possible_answers(
                target, database, extra_fresh=extra_fresh, optimize=optimize
            )
            annotated += tuple(
                AnnotatedTuple(row, Certainty.POSSIBLE)
                for row in possible.sorted_rows()
                if row not in relation
            )
        return StrategyOutcome(
            answer=relation,
            annotated=annotated,
            certain=relation,
            possible=possible,
            metadata={"variant": variant, "valuations": valuations},
        )


@register_strategy("approx-libkin16", aliases=("libkin16", "qt-qf", "figure2a"))
class Libkin16Strategy(EvaluationStrategy):
    """The (Qt, Qf) rewriting of Figure 2a [51]."""

    capabilities = StrategyCapabilities(
        semantics=("set",),
        requires=("algebra",),
        sound=True,
        plan_ops=_TRANSLATION_PLAN_OPS,
        optimize=True,
        stats=True,
        cost="exponential",  # Qf materialises Dom^k complements
    )
    description = "(Qt, Qf) rewriting; sound but materialises Dom^k products"

    def run(self, query: NormalizedQuery, database: Database, *, semantics: str, **options):
        annotate_false_positives = bool(options.pop("annotate_false_positives", True))
        optimize = bool(options.pop("optimize", False))
        stats = bool(options.pop("stats", False))
        self.reject_unknown_options(options)
        algebra = self.require_algebra(query)
        pair = translate_libkin16(algebra, database.schema())
        # One interpreter batch for all three plans: Qt, Qf (and the naïve
        # check) share large subtrees almost verbatim, so the per-database
        # sub-plan memo pays off across the pair.  The Qf side materialises
        # Dom^k complements, which no SQL compilation expresses, so this
        # strategy stays interpreter-only.
        plans = [pair.certainly_true, pair.certainly_false]
        if annotate_false_positives:
            plans.append(algebra)
        relations = InterpreterBackend().run(
            plans, database, optimize=optimize, stats=stats
        )
        certainly_true, certainly_false = relations[0], relations[1]
        annotated = annotate(certainly_true, Certainty.CERTAIN)
        false_positive_count = 0
        if annotate_false_positives:
            naive = relations[2]
            false_rows = naive.rows_set() & certainly_false.rows_set()
            false_positive_count = len(false_rows)
            annotated += tuple(
                AnnotatedTuple(row, Certainty.FALSE_POSITIVE)
                for row in sorted(false_rows, key=str)
            )
        return StrategyOutcome(
            answer=certainly_true,
            annotated=annotated,
            certain=certainly_true,
            certainly_false=certainly_false,
            metadata={
                "scheme": "figure-2a",
                "false_positives": false_positive_count,
            },
        )


@register_strategy(
    "approx-guagliardo16", aliases=("guagliardo16", "q-plus", "figure2b")
)
class Guagliardo16Strategy(EvaluationStrategy):
    """The (Q+, Q?) rewriting of Figure 2b [37]."""

    capabilities = StrategyCapabilities(
        semantics=("set",),
        requires=("algebra",),
        sound=True,
        plan_ops=_TRANSLATION_PLAN_OPS,
        optimize=True,
        stats=True,
        backends=("interpreter", "sqlite"),
        shardable_ops=_TRANSLATION_SHARD_OPS,
        cost="polynomial",
    )
    description = "(Q+, Q?) rewriting; sound with small overhead (experiment E4)"

    def run(self, query: NormalizedQuery, database: Database, *, semantics: str, **options):
        optimize = bool(options.pop("optimize", False))
        stats = bool(options.pop("stats", False))
        backend = str(options.pop("backend", "interpreter"))
        self.reject_unknown_options(options)
        algebra = self.require_algebra(query)
        pair = translate_guagliardo16(algebra, database.schema())
        execution = execute_plans(
            [pair.certain, pair.possible],
            database,
            backend=backend,
            optimize=optimize,
            stats=stats,
            strategy=self.name,
        )
        certain, possible = execution.relations
        return StrategyOutcome(
            answer=certain,
            certain=certain,
            possible=possible,
            metadata={"backend": execution.as_metadata()},
        )

    def finish(
        self, outcome: StrategyOutcome, *, database: Database,
        normalized: NormalizedQuery, semantics: str,
    ) -> StrategyOutcome:
        certain = outcome.certain
        annotated = annotate(certain, Certainty.CERTAIN) + tuple(
            AnnotatedTuple(row, Certainty.POSSIBLE)
            for row in outcome.possible.sorted_rows()
            if row not in certain
        )
        return replace(
            outcome,
            annotated=annotated,
            metadata={"scheme": "figure-2b", **outcome.metadata},
        )


@register_strategy("ctables", aliases=("c-tables",))
class CTablesStrategy(EvaluationStrategy):
    """The grounding-based c-table strategies of [36] (Section 4.2)."""

    capabilities = StrategyCapabilities(
        semantics=("set",),
        requires=("algebra",),
        sound=True,
        plan_ops=_CTABLES_PLAN_OPS,
        optimize=True,
        cost="exponential",  # grounding enumerates condition valuations
    )
    description = "conditional evaluation over c-tables (eager/semi_eager/lazy/aware)"

    def run(self, query: NormalizedQuery, database: Database, *, semantics: str, **options):
        variant = options.pop("variant", "lazy")
        optimize = bool(options.pop("optimize", False))
        self.reject_unknown_options(options)
        if variant not in CTABLE_VARIANTS:
            raise EngineError(
                f"unknown c-table variant {variant!r}; expected one of {CTABLE_VARIANTS}"
            )
        algebra = self.require_algebra(query)
        if optimize:
            # Logical rules only: the conditional evaluator manipulates
            # symbolic conditions and cannot execute the physical
            # EquiJoin/ConstrainedDomainRelation nodes.  The naïve-only
            # trivial-self-equality rule is excluded too — a symbolic
            # ``x = x`` is true under every valuation, but keeping the
            # selection keeps the produced c-table conditions identical.
            from ..algebra.optimize import optimize_plan

            algebra = optimize_plan(
                algebra, database.schema(), condition_mode="3vl", physical=False
            )
        result = run_ctable_strategy(variant, algebra, database)
        annotated = annotate(result.certain, Certainty.CERTAIN) + tuple(
            AnnotatedTuple(row, Certainty.POSSIBLE)
            for row in result.possible.sorted_rows()
            if row not in result.certain
        )
        return StrategyOutcome(
            answer=result.certain,
            annotated=annotated,
            certain=result.certain,
            possible=result.possible,
            metadata={"variant": variant, "ctable_rows": len(result.ctable)},
        )
