"""The (Q+, Q?) approximation scheme of [37] (Figure 2b of the paper).

A relational algebra query ``Q`` is translated into a pair of queries
``(Q+, Q?)`` where ``Q+`` under-approximates certain answers and ``Q?``
over-approximates possible answers (Theorem 4.7)::

    Q+(D) ⊆ cert⊥(Q, D)
    v(Q+(D)) ⊆ Q(v(D)) ⊆ v(Q?(D))      for every valuation v

The translation rules are those of Figure 2b:

====================  =============================================
``R+ = R``            ``R? = R``
``(Q1 ∪ Q2)+``        ``Q1+ ∪ Q2+``
``(Q1 ∪ Q2)?``        ``Q1? ∪ Q2?``
``(Q1 − Q2)+``        ``Q1+ ⋉⇑ Q2?``
``(Q1 − Q2)?``        ``Q1? − Q2+``
``σθ(Q)+``            ``σθ*(Q+)``
``σθ(Q)?``            ``σ¬(¬θ)*(Q?)``
``(Q1 × Q2)+``        ``Q1+ × Q2+``
``(Q1 × Q2)?``        ``Q1? × Q2?``
``πα(Q)+``            ``πα(Q+)``
``πα(Q)?``            ``πα(Q?)``
====================  =============================================

Unlike the Figure 2a scheme, no active-domain products are ever built,
which is what makes the rewriting cheap: the paper reports a typical
1–4% overhead over the original queries on TPC-H (experiment E4), and
the same shape is measured by ``benchmarks/bench_overhead_tpch.py``.

On complete databases ``Q+(D) = Q?(D) = Q(D)``.

This module is the low-level layer under ``Engine.evaluate(query, db,
strategy="approx-guagliardo16")`` (:mod:`repro.engine`): the pipeline alone,
without the engine's cache, options, annotations or metadata.  The
strategy, the pipeline's own tests and several experiments call it
directly; everything else should go through the engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..algebra import ast as ra
from ..algebra.conditions import negate, star
from ..datamodel.schema import DatabaseSchema
from .normalize import normalize_for_translation

__all__ = ["CertainPossiblePair", "translate_guagliardo16"]


@dataclass(frozen=True)
class CertainPossiblePair:
    """The pair (Q+, Q?) of Figure 2b."""

    certain: ra.Query
    possible: ra.Query


def translate_guagliardo16(query: ra.Query, schema: DatabaseSchema) -> CertainPossiblePair:
    """Translate a relational algebra query into its (Q+, Q?) pair."""
    query = normalize_for_translation(query)
    return _translate(query, schema)


def _translate(query: ra.Query, schema: DatabaseSchema) -> CertainPossiblePair:
    if isinstance(query, (ra.RelationRef, ra.ConstantRelation, ra.DomainRelation)):
        return CertainPossiblePair(certain=query, possible=query)
    if isinstance(query, ra.Union):
        left = _translate(query.left, schema)
        right = _translate(query.right, schema)
        return CertainPossiblePair(
            certain=ra.Union(left.certain, right.certain),
            possible=ra.Union(left.possible, right.possible),
        )
    if isinstance(query, ra.Difference):
        left = _translate(query.left, schema)
        right = _translate(query.right, schema)
        return CertainPossiblePair(
            certain=ra.UnifAntiSemiJoin(left.certain, right.possible),
            possible=ra.Difference(left.possible, right.certain),
        )
    if isinstance(query, ra.Selection):
        child = _translate(query.child, schema)
        possible_condition = negate(star(negate(query.condition)))
        return CertainPossiblePair(
            certain=ra.Selection(child.certain, star(query.condition)),
            possible=ra.Selection(child.possible, possible_condition),
        )
    if isinstance(query, ra.Product):
        left = _translate(query.left, schema)
        right = _translate(query.right, schema)
        return CertainPossiblePair(
            certain=ra.Product(left.certain, right.certain),
            possible=ra.Product(left.possible, right.possible),
        )
    if isinstance(query, ra.Projection):
        child = _translate(query.child, schema)
        return CertainPossiblePair(
            certain=ra.Projection(child.certain, query.attributes),
            possible=ra.Projection(child.possible, query.attributes),
        )
    if isinstance(query, ra.Rename):
        child = _translate(query.child, schema)
        mapping = query.mapping_dict()
        return CertainPossiblePair(
            certain=ra.Rename(child.certain, mapping),
            possible=ra.Rename(child.possible, mapping),
        )
    raise ValueError(
        f"operator {type(query).__name__} is not supported by the Figure 2b translation"
    )
