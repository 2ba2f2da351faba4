"""Naïve evaluation of queries over databases with nulls (Section 4.1).

Naïve evaluation treats nulls as fresh constants: formally,
``Q_naive(D) = v⁻¹(Q(v(D)))`` for a bijective valuation ``v`` of the
nulls onto fresh constants.  For generic queries the choice of ``v``
does not matter.

Our algebra and calculus evaluators already treat nulls as ordinary
values (a null equals only itself), so evaluating a query directly on
the incomplete database *is* naïve evaluation.  Both styles are exposed:
:func:`naive_evaluate_direct` runs the evaluator on ``D`` as-is, while
:func:`naive_evaluate` follows the textbook definition through a
bijective valuation — the two coincide exactly for generic queries, and
the test suite checks that they do.

This module is the low-level layer under ``Engine.evaluate(query, db,
strategy="naive")`` (:mod:`repro.engine`): the pipeline alone,
without the engine's cache, options, annotations or metadata.  The
strategy, the pipeline's own tests and several experiments call it
directly; everything else should go through the engine.
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..algebra import ast as ra
from ..algebra.evaluator import Evaluator
from ..calculus.evaluation import FoQuery
from ..datamodel.database import Database
from ..datamodel.relation import Relation
from ..datamodel.valuation import bijective_valuation

__all__ = ["naive_evaluate", "naive_evaluate_direct", "naive_boolean"]

AnyQuery = "ra.Query | FoQuery"


def _run(
    query,
    database: Database,
    *,
    bag: bool = False,
    optimize: bool = False,
    stats: bool = False,
) -> Relation:
    """Dispatch on the query kind: relational algebra tree or FO query.

    ``optimize`` turns on the plan optimizer of
    :mod:`repro.algebra.optimize` for algebra input (the FO evaluator
    has no plan to optimize; the flag is ignored there); ``stats``
    additionally feeds it per-relation statistics so the physical plan
    is chosen by estimated cost.
    """
    if isinstance(query, ra.Query):
        return Evaluator(bag=bag, optimize=optimize, stats=stats).evaluate(
            query, database
        )
    if isinstance(query, FoQuery):
        return query.answers(database)
    raise TypeError(f"cannot evaluate object of type {type(query).__name__}")


def _query_constants(query) -> set:
    if isinstance(query, FoQuery):
        from ..calculus import ast as fo

        return fo.constants_mentioned(query.formula)
    constants: set = set()
    if isinstance(query, ra.Query):
        from ..algebra.conditions import Comparison, Literal

        for node in ra.walk(query):
            if isinstance(node, ra.ConstantRelation):
                constants.update(v for row in node.rows for v in row)
            if isinstance(node, ra.Selection):
                stack = [node.condition]
                while stack:
                    condition = stack.pop()
                    if isinstance(condition, Comparison):
                        for term in (condition.left, condition.right):
                            if isinstance(term, Literal):
                                constants.add(term.value)
                    stack.extend(condition.children())
    return constants


def naive_evaluate_direct(
    query,
    database: Database,
    *,
    bag: bool = False,
    optimize: bool = False,
    stats: bool = False,
) -> Relation:
    """Naïve evaluation by running the evaluator with nulls as values."""
    return _run(query, database, bag=bag, optimize=optimize, stats=stats)


def naive_evaluate(
    query,
    database: Database,
    *,
    bag: bool = False,
    optimize: bool = False,
    stats: bool = False,
) -> Relation:
    """Naïve evaluation through the textbook definition ``v⁻¹(Q(v(D)))``.

    A bijective valuation ``v`` maps the nulls of ``D`` to fresh constants
    (disjoint from ``dom(D)`` and the constants of the query); the query is
    evaluated on the complete database ``v(D)`` and the answer is mapped
    back through ``v⁻¹``.
    """
    valuation = bijective_valuation(database, avoid=_query_constants(query))
    complete = valuation.apply_database(database)
    answer = _run(query, complete, bag=bag, optimize=optimize, stats=stats)
    inverse = valuation.inverse()
    return answer.map_values(inverse.apply_value)


def naive_boolean(query, database: Database) -> bool:
    """Naïve evaluation of a Boolean query."""
    return bool(naive_evaluate_direct(query, database))
