"""Exact certain answers (Section 3.2), computed by brute force.

Two relational notions of certainty from the paper:

* intersection-based certain answers (Definition 3.7)::

      cert∩(Q, D) = ⋂ { Q(D') | D' ∈ ⟦D⟧ }

* certain answers with nulls (Definition 3.9, CWA form)::

      cert⊥(Q, D) = { t̄ over dom(D) | v(t̄) ∈ Q(v(D)) for every valuation v }

Both are intractable in general (Theorem 3.12: coNP-complete under CWA,
undecidable under OWA for FO), so these functions are *reference*
implementations used as ground truth on small databases by the tests,
the quality metrics (precision/recall of approximations) and the
benchmarks that need an exact baseline.

For generic queries, it is enough to consider valuations into a finite
pool of constants: ``Const(D)``, the constants of the query, and one
fresh constant per null (see :mod:`repro.incomplete.worlds`).  The
number of valuations is ``|pool| ** |Null(D)|``, so keep ``Null(D)``
small.

Under OWA, exact computation is only offered for monotone queries
(UCQs), where the CWA answer coincides with the OWA answer; for other
queries :func:`certain_answers_owa` raises, matching the undecidability
result.

This module is the low-level layer under ``Engine.evaluate(query, db,
strategy="exact-certain")`` (:mod:`repro.engine`): the pipeline alone,
without the engine's cache, options, annotations or metadata.  The
strategy, the pipeline's own tests and several experiments call it
directly; everything else should go through the engine.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..algebra import ast as ra
from ..calculus.evaluation import FoQuery
from ..calculus.fragments import is_ucq
from ..datamodel.database import Database
from ..datamodel.relation import Relation
from ..datamodel.values import Value, is_const
from ..resilience import active_deadline
from .naive import _query_constants, _run, naive_evaluate_direct
from .worlds import constant_pool, count_valuations, iterate_worlds

__all__ = [
    "certain_answers_with_nulls",
    "certain_answers_intersection",
    "certain_boolean",
    "certain_answers_owa",
    "possible_answers",
    "CERTAIN_ENUMERATION_LIMIT",
]

#: Guard against accidentally enumerating an astronomically large set of
#: valuations; raise instead of looping for hours.
CERTAIN_ENUMERATION_LIMIT = 2_000_000


def _checked_pool(query, database: Database, extra_fresh: int | None) -> list[Value]:
    pool = constant_pool(database, _query_constants(query), extra_fresh=extra_fresh)
    total = count_valuations(database, pool)
    if total > CERTAIN_ENUMERATION_LIMIT:
        raise ValueError(
            f"exact certain answers would require {total} valuations; "
            f"the limit is {CERTAIN_ENUMERATION_LIMIT} "
            "(use the approximation schemes for larger instances)"
        )
    return pool


def _worlds(database: Database, pool: Sequence[Value]):
    """``iterate_worlds`` honouring any ambient evaluation deadline.

    Each world costs a full query evaluation, so the check runs every
    iteration — these loops are where a blown wall-clock budget would
    otherwise grind on for ``|pool| ** |Null(D)|`` worlds.
    """
    worlds = iterate_worlds(database, pool)
    deadline = active_deadline()
    if deadline is None:
        return worlds
    return deadline.ticked(worlds, every=1, where="valuation enumeration")


def certain_answers_with_nulls(
    query,
    database: Database,
    *,
    extra_fresh: int | None = None,
    optimize: bool = False,
) -> Relation:
    """``cert⊥(Q, D)`` under CWA, by enumeration of valuations.

    Candidate tuples are the naïve answers (for a generic query every
    certain tuple over ``dom(D)`` is a naïve answer, because the bijective
    valuation onto fresh constants is among the valuations checked).

    ``optimize`` runs the plan optimizer before evaluation; the
    optimized plan is memoised, so the per-world loop pays the rewrite
    once and evaluates the cheaper plan in every possible world.
    """
    candidates = naive_evaluate_direct(query, database, optimize=optimize)
    pool = _checked_pool(query, database, extra_fresh)
    surviving = set(candidates.rows_set())
    for valuation, world in _worlds(database, pool):
        if not surviving:
            break
        answer = _run(query, world, optimize=optimize).rows_set()
        surviving = {row for row in surviving if valuation.apply_tuple(row) in answer}
    return Relation(candidates.attributes, sorted(surviving, key=str))


def certain_answers_intersection(
    query,
    database: Database,
    *,
    extra_fresh: int | None = None,
    optimize: bool = False,
) -> Relation:
    """``cert∩(Q, D)`` under CWA: the null-free certain answers.

    By Proposition 3.10, ``cert∩(Q, D) = cert⊥(Q, D) ∩ Const^m``.
    """
    with_nulls = certain_answers_with_nulls(
        query, database, extra_fresh=extra_fresh, optimize=optimize
    )
    constant_rows = [row for row in with_nulls if all(is_const(v) for v in row)]
    return Relation(with_nulls.attributes, constant_rows)


def certain_boolean(query, database: Database, *, extra_fresh: int | None = None) -> bool:
    """Certainty of a Boolean query: true in every possible world (CWA)."""
    pool = _checked_pool(query, database, extra_fresh)
    for _, world in _worlds(database, pool):
        if not _run(query, world):
            return False
    return True


def possible_answers(
    query,
    database: Database,
    *,
    extra_fresh: int | None = None,
    optimize: bool = False,
) -> Relation:
    """Tuples that are an answer in at least one possible world (CWA).

    The dual of certainty; used by the tests of the ``Q?`` translation
    (equation (5) of the paper gives ``Q(v(D)) ⊆ v(Q?(D))``, i.e. ``Q?``
    over-approximates possibility).  Answers are reported as tuples over
    ``dom(D)`` whose image is an answer in some world.
    """
    candidates = _candidate_tuples(query, database)
    pool = _checked_pool(query, database, extra_fresh)
    possible: set = set()
    for valuation, world in _worlds(database, pool):
        answer = _run(query, world, optimize=optimize).rows_set()
        for row in candidates:
            if row not in possible and valuation.apply_tuple(row) in answer:
                possible.add(row)
    attributes = _output_attributes(query, database)
    return Relation(attributes, sorted(possible, key=str))


def _candidate_tuples(query, database: Database) -> list[tuple]:
    """All tuples over dom(D) of the query's output arity (small instances only)."""
    import itertools

    arity = _output_arity(query, database)
    domain = sorted(database.active_domain(), key=str)
    if arity == 0:
        return [()]
    return [tuple(c) for c in itertools.product(domain, repeat=arity)]


def _output_arity(query, database: Database) -> int:
    if isinstance(query, FoQuery):
        return query.arity
    return len(query.output_attributes(database.schema()))


def _output_attributes(query, database: Database) -> tuple[str, ...]:
    if isinstance(query, FoQuery):
        return query.attributes()
    return tuple(query.output_attributes(database.schema()))


def certain_answers_owa(query, database: Database, **kwargs) -> Relation:
    """Certain answers under OWA.

    Offered only for unions of conjunctive queries, where monotonicity
    makes the OWA and CWA answers coincide and naïve evaluation is exact
    (Theorem 4.4).  For other queries the problem is undecidable
    (Theorem 3.12) and a ``ValueError`` is raised.
    """
    if isinstance(query, FoQuery) and is_ucq(query.formula):
        return certain_answers_with_nulls(query, database, **kwargs)
    raise ValueError(
        "exact OWA certain answers are only supported for UCQs; "
        "use the approximation schemes for other queries"
    )
