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
fresh constant per null (see :mod:`repro.incomplete.worlds`).  The same
genericity allows three exact reductions, each applied wherever it is
sound (:func:`valuation_space` decides):

* **relevance** — only the nulls of the relations the plan reads are
  valued.  Off when the plan holds a ``Dom^k`` node (it reads the whole
  active domain) and for FO queries (quantifiers range over it);
* **symmetry** — valuations that differ by a permutation of the fresh
  constants give every candidate the same verdict, so the fresh
  constants are taken in first-use order.  For ``k`` valued nulls and
  ``c`` known constants that leaves ``Σ_j C(k,j)·c^(k−j)·Bell(j)``
  valuations instead of ``(c+k)^k``.  Off when a condition compares by
  order (``<``, ``≤``, ``>``, ``≥``), which tells the fresh constants
  apart;
* **cheaper worlds** — each world rebuilds only the relations holding a
  valued null (:func:`repro.incomplete.worlds.iterate_worlds`).

:func:`possible_answers` skips relevance: its candidates range over all
of ``dom(D)``, so a null the query never reads can still be mapped onto
an answer.  The space stays exponential in the number of valued nulls,
so keep it small.

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

from typing import NamedTuple

from ..algebra import ast as ra
from ..algebra.conditions import _OrderComparison
from ..calculus.evaluation import FoQuery
from ..calculus.fragments import is_ucq
from ..datamodel.database import Database
from ..datamodel.relation import Relation
from ..datamodel.values import Null, Value, is_const, is_null
from ..resilience import active_deadline
from .naive import _conditions, _query_constants, _run, naive_evaluate_direct
from .worlds import constant_pool, count_valuations, iterate_worlds

__all__ = [
    "certain_answers_with_nulls",
    "certain_answers_intersection",
    "certain_boolean",
    "certain_answers_owa",
    "possible_answers",
    "valuation_space",
    "ValuationSpace",
    "CERTAIN_ENUMERATION_LIMIT",
]

#: Guard against accidentally enumerating an astronomically large set of
#: valuations; raise instead of looping for hours.
CERTAIN_ENUMERATION_LIMIT = 2_000_000


class ValuationSpace(NamedTuple):
    """What an exact enumeration values, and into what.

    ``pool`` is the constant pool of Section 4.3, ``nulls`` the nulls
    that get valued, and ``interchangeable`` the pool constants taken in
    first-use order (empty when symmetry does not hold).  These are the
    keywords of :func:`~repro.incomplete.worlds.iterate_worlds` and
    :func:`~repro.incomplete.worlds.count_valuations`.
    """

    pool: list[Value]
    nulls: frozenset[Null]
    interchangeable: tuple[Value, ...]

    def size(self, database: Database) -> int:
        """The number of valuations in the space."""
        return count_valuations(
            database, self.pool, nulls=self.nulls, interchangeable=self.interchangeable
        )


def valuation_space(
    query, database: Database, extra_fresh: int | None = None
) -> ValuationSpace:
    """The reduced valuation space of ``query`` over ``database``.

    The pool is :func:`~repro.incomplete.worlds.constant_pool`'s.  Only
    the nulls of the relations an algebra plan reads are valued (all of
    them when the plan holds a ``Dom^k`` node, or for an FO query).  The
    fresh constants are interchangeable unless a condition compares by
    order.
    """
    query_constants = _query_constants(query)
    pool = constant_pool(database, query_constants, extra_fresh=extra_fresh)
    known = len(set(database.constants()) | query_constants)
    ordered = isinstance(query, ra.Query) and any(
        isinstance(condition, _OrderComparison) for condition in _conditions(query)
    )
    interchangeable = () if ordered else tuple(pool[known:])
    read = _read_relations(query)
    if read is None:
        nulls = frozenset(database.nulls())
    else:
        nulls = set()
        for name in read:
            if name in database:
                nulls |= database[name].nulls()
        # A null the query itself carries stays valued as it is in D.
        carried = {value for value in query_constants if is_null(value)}
        if carried:
            nulls |= carried & database.nulls()
        nulls = frozenset(nulls)
    return ValuationSpace(pool, nulls, interchangeable)


def _read_relations(query) -> set[str] | None:
    """The relation names an algebra plan reads; ``None`` when it reads
    the whole active domain (a ``Dom^k`` node, or an FO query)."""
    if not isinstance(query, ra.Query):
        return None
    names: set[str] = set()
    for node in ra.walk(query):
        if isinstance(node, (ra.DomainRelation, ra.ConstrainedDomainRelation)):
            return None
        if isinstance(node, ra.RelationRef):
            names.add(node.name)
    return names


def _checked(space: ValuationSpace, database: Database) -> ValuationSpace:
    total = space.size(database)
    if total > CERTAIN_ENUMERATION_LIMIT:
        raise ValueError(
            f"exact certain answers would require {total} valuations; "
            f"the limit is {CERTAIN_ENUMERATION_LIMIT} "
            "(use the approximation schemes for larger instances)"
        )
    return space


def _worlds(database: Database, space: ValuationSpace):
    """``iterate_worlds`` over the space, honouring any ambient deadline.

    Each world costs a full query evaluation, so the check runs every
    iteration — these loops are where a blown wall-clock budget would
    otherwise grind on through an exponential number of worlds.
    """
    worlds = iterate_worlds(
        database,
        space.pool,
        nulls=space.nulls,
        interchangeable=space.interchangeable,
    )
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
    counts: dict | None = None,
) -> Relation:
    """``cert⊥(Q, D)`` under CWA, by enumeration of valuations.

    Candidate tuples are the naïve answers (for a generic query every
    certain tuple over ``dom(D)`` is a naïve answer, because the bijective
    valuation onto fresh constants is among the valuations checked).

    ``optimize`` runs the plan optimizer before evaluation; the
    optimized plan is memoised, so the per-world loop pays the rewrite
    once and evaluates the cheaper plan in every possible world.

    ``counts``, when given, is filled with the size of the enumeration:
    ``full`` (``|pool| ** |Null(D)|``), ``relevant_nulls`` (the nulls
    valued), ``symmetric`` (the valuations left after both reductions)
    and ``enumerated`` (the worlds checked before every candidate was
    refuted).
    """
    candidates = naive_evaluate_direct(query, database, optimize=optimize)
    space = _checked(valuation_space(query, database, extra_fresh), database)
    surviving = set(candidates.rows_set())
    enumerated = 0
    for valuation, world in _worlds(database, space):
        if not surviving:
            break
        enumerated += 1
        answer = _run(query, world, optimize=optimize).rows_set()
        surviving = {row for row in surviving if valuation.apply_tuple(row) in answer}
    if counts is not None:
        counts.update(
            full=count_valuations(database, space.pool),
            relevant_nulls=len(space.nulls),
            symmetric=space.size(database),
            enumerated=enumerated,
        )
    return Relation(candidates.attributes, sorted(surviving, key=str))


def certain_answers_intersection(
    query,
    database: Database,
    *,
    extra_fresh: int | None = None,
    optimize: bool = False,
    counts: dict | None = None,
) -> Relation:
    """``cert∩(Q, D)`` under CWA: the null-free certain answers.

    By Proposition 3.10, ``cert∩(Q, D) = cert⊥(Q, D) ∩ Const^m``.
    ``counts`` is filled as by :func:`certain_answers_with_nulls`.
    """
    with_nulls = certain_answers_with_nulls(
        query, database, extra_fresh=extra_fresh, optimize=optimize, counts=counts
    )
    constant_rows = [row for row in with_nulls if all(is_const(v) for v in row)]
    return Relation(with_nulls.attributes, constant_rows)


def certain_boolean(query, database: Database, *, extra_fresh: int | None = None) -> bool:
    """Certainty of a Boolean query: true in every possible world (CWA)."""
    space = _checked(valuation_space(query, database, extra_fresh), database)
    for _, world in _worlds(database, space):
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

    Every null is valued, even one the query never reads: a candidate
    may carry it, and some valuation maps it onto an answer.
    """
    candidates = _candidate_tuples(query, database)
    space = valuation_space(query, database, extra_fresh)
    space = _checked(space._replace(nulls=frozenset(database.nulls())), database)
    possible: set = set()
    for valuation, world in _worlds(database, space):
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
