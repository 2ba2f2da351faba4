"""The (Qt, Qf) approximation scheme of [51] (Figure 2a of the paper).

A relational algebra query ``Q`` is translated into a pair of queries
``(Qt, Qf)`` such that, for every database ``D``,

* ``Qt(D) ⊆ cert⊥(Q, D)``   — tuples certainly *in* the answer, and
* ``Qf(D) ⊆ cert⊥(¬Q, D)``  — tuples certainly *not* in the answer,

(Theorem 4.6).  Both translations have AC0 data complexity, and on
complete databases ``Qt(D) = Q(D)``.

The translation rules are exactly those of Figure 2a:

====================  =============================================
``Rt = R``            ``Rf = Dom^ar(R) ⋉⇑ R``
``(Q1 ∪ Q2)t``        ``Qt1 ∪ Qt2``
``(Q1 ∪ Q2)f``        ``Qf1 ∩ Qf2``
``(Q1 − Q2)t``        ``Qt1 ∩ Qf2``
``(Q1 − Q2)f``        ``Qf1 ∪ Qt2``
``σθ(Q)t``            ``σθ*(Qt)``
``σθ(Q)f``            ``Qf ∪ σ(¬θ)*(Dom^ar(Q))``
``(Q1 × Q2)t``        ``Qt1 × Qt2``
``(Q1 × Q2)f``        ``Qf1 × Dom^ar(Q2) ∪ Dom^ar(Q1) × Qf2``
``πα(Q)t``            ``πα(Qt)``
``πα(Q)f``            ``πα(Qf) − πα(Dom^ar(Q) − Qf)``
====================  =============================================

The ``Qf`` side materialises Cartesian powers of the active domain,
which is what makes this scheme impractical (it is the subject of
experiment E5); the scheme of Figure 2b in
:mod:`repro.approx.guagliardo16` avoids this.

This module is the low-level layer under ``Engine.evaluate(query, db,
strategy="approx-libkin16")`` (:mod:`repro.engine`): the pipeline alone,
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

__all__ = ["CertainFalsePair", "translate_libkin16"]


@dataclass(frozen=True)
class CertainFalsePair:
    """The pair (Qt, Qf) of Figure 2a."""

    certainly_true: ra.Query
    certainly_false: ra.Query


def translate_libkin16(query: ra.Query, schema: DatabaseSchema) -> CertainFalsePair:
    """Translate a relational algebra query into its (Qt, Qf) pair.

    The query must be built from the core operators (base relations,
    constant tables, σ, π, ×, ∪, −, ∩, ρ); other operators are first
    normalised into the core (see :mod:`repro.approx.normalize`) and a
    ``ValueError`` is raised for the ones that cannot be.
    """
    query = normalize_for_translation(query)
    return _translate(query, schema)


def _dom_like(query: ra.Query, schema: DatabaseSchema) -> ra.DomainRelation:
    """``Dom^ar(Q)`` carrying the same attribute names as ``Q``."""
    return ra.DomainRelation(query.output_attributes(schema))


def _translate(query: ra.Query, schema: DatabaseSchema) -> CertainFalsePair:
    if isinstance(query, (ra.RelationRef, ra.ConstantRelation)):
        return CertainFalsePair(
            certainly_true=query,
            certainly_false=ra.UnifAntiSemiJoin(_dom_like(query, schema), query),
        )
    if isinstance(query, ra.Union):
        left = _translate(query.left, schema)
        right = _translate(query.right, schema)
        return CertainFalsePair(
            certainly_true=ra.Union(left.certainly_true, right.certainly_true),
            certainly_false=ra.Intersection(left.certainly_false, right.certainly_false),
        )
    if isinstance(query, ra.Difference):
        left = _translate(query.left, schema)
        right = _translate(query.right, schema)
        return CertainFalsePair(
            certainly_true=ra.Intersection(left.certainly_true, right.certainly_false),
            certainly_false=ra.Union(left.certainly_false, right.certainly_true),
        )
    if isinstance(query, ra.Selection):
        child = _translate(query.child, schema)
        negated = star(negate(query.condition))
        return CertainFalsePair(
            certainly_true=ra.Selection(child.certainly_true, star(query.condition)),
            certainly_false=ra.Union(
                child.certainly_false,
                ra.Selection(_dom_like(query.child, schema), negated),
            ),
        )
    if isinstance(query, ra.Product):
        left = _translate(query.left, schema)
        right = _translate(query.right, schema)
        left_dom = _dom_like(query.left, schema)
        right_dom = _dom_like(query.right, schema)
        return CertainFalsePair(
            certainly_true=ra.Product(left.certainly_true, right.certainly_true),
            certainly_false=ra.Union(
                ra.Product(left.certainly_false, right_dom),
                ra.Product(left_dom, right.certainly_false),
            ),
        )
    if isinstance(query, ra.Projection):
        child = _translate(query.child, schema)
        child_dom = _dom_like(query.child, schema)
        return CertainFalsePair(
            certainly_true=ra.Projection(child.certainly_true, query.attributes),
            certainly_false=ra.Difference(
                ra.Projection(child.certainly_false, query.attributes),
                ra.Projection(
                    ra.Difference(child_dom, child.certainly_false), query.attributes
                ),
            ),
        )
    if isinstance(query, ra.Rename):
        child = _translate(query.child, schema)
        mapping = query.mapping_dict()
        return CertainFalsePair(
            certainly_true=ra.Rename(child.certainly_true, mapping),
            certainly_false=ra.Rename(child.certainly_false, mapping),
        )
    raise ValueError(
        f"operator {type(query).__name__} is not supported by the Figure 2a translation"
    )
