"""Per-relation statistics and plan cardinality estimation.

The PR 4 optimizer picks hash-join build sides from *actual*
cardinalities, which forces both inputs to materialise before the choice
is made, and it only ever joins adjacent ``Product`` pairs in the order
the plan author (or the Figure 2 translations) happened to write them.
This module supplies the missing ingredient — data — in the cheapest
form that still steers plans well:

* :class:`RelationStats` — row count (distinct and with
  multiplicities) plus per-attribute distinct/null counts for one
  relation.  Computed in one pass and **cached on the relation's
  content** (relations are immutable and hash by content, so the cache
  key *is* the fingerprint): mutating a database produces new relation
  objects with new content, which miss the cache — stale statistics are
  structurally impossible, no invalidation protocol needed.
* :class:`Stats` — a lazy per-database provider.  Nothing is scanned
  until the optimizer (or the ``strategy="auto"`` planner) asks for a
  relation; :meth:`Stats.key` renders the whole database's statistics
  as a stable hashable value for memo keys, so two databases with
  identical statistics share optimized plans.
* :class:`PlanEstimator` — System-R-style cardinality estimation over
  whole plans: equality selectivity ``1/distinct``, join size
  ``|L|·|R| / ∏ max(d_L, d_R)``, ``null(A)`` selectivity from the null
  counts, ``Dom^k`` from the active-domain size.  The summary cost
  (:meth:`PlanEstimator.cost`, the classic ``C_out`` sum of
  intermediate cardinalities) is what the planner compares numerically.

**Soundness contract:** statistics influence *cost* only, never
*answers*.  Every consumer uses estimates to choose among plans that
are equivalent by construction (join order, hash build side, strategy
tie-breaks); a wildly wrong estimate can produce a slow plan, never a
wrong one.  The randomized harness in ``tests/test_differential.py``
pins this tuple-for-tuple across every strategy.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..datamodel.values import is_null
from . import ast as ra
from .conditions import (
    And,
    Attr,
    Comparison,
    Condition,
    Eq,
    FalseCondition,
    IsConst,
    IsNull,
    Neq,
    Not,
    Or,
    TrueCondition,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..datamodel.database import Database
    from ..datamodel.relation import Relation
    from ..datamodel.schema import DatabaseSchema

__all__ = [
    "RelationStats",
    "Stats",
    "Estimate",
    "PlanEstimator",
    "relation_stats",
    "estimate_plan",
    "estimate_cost",
    "DEFAULT_ROWS",
    "DEFAULT_SELECTIVITY",
]

#: Cardinality assumed for a relation with no statistics (a plan leaf
#: referencing a relation absent from the provider's database).
DEFAULT_ROWS = 1000.0

#: Selectivity assumed for range comparisons and anything else the
#: estimator has no formula for (the System R magic constant).
DEFAULT_SELECTIVITY = 1.0 / 3.0


@dataclass(frozen=True)
class RelationStats:
    """One relation's statistics, in plan-estimation form.

    ``rows`` counts distinct rows, ``total`` counts with bag
    multiplicities; ``distinct`` and ``nulls`` are per-attribute counts
    over the *distinct* rows, aligned with ``attributes``.
    """

    attributes: tuple[str, ...]
    rows: int
    total: int
    distinct: tuple[int, ...]
    nulls: tuple[int, ...]

    def key(self) -> tuple:
        """A stable hashable summary (for optimizer memo keys)."""
        return (self.attributes, self.rows, self.total, self.distinct, self.nulls)


def compute_relation_stats(relation: "Relation") -> RelationStats:
    """One pass over a relation: row/distinct/null counts per attribute."""
    attributes = relation.attributes
    arity = len(attributes)
    seen: list[set] = [set() for _ in range(arity)]
    nulls = [0] * arity
    rows = 0
    total = 0
    for row, count in relation.iter_rows(with_multiplicity=True):
        rows += 1
        total += count
        for position, value in enumerate(row):
            seen[position].add(value)
            if is_null(value):
                nulls[position] += 1
    return RelationStats(
        attributes=attributes,
        rows=rows,
        total=total,
        distinct=tuple(len(values) for values in seen),
        nulls=tuple(nulls),
    )


#: Content-addressed statistics cache.  Relations hash and compare by
#: content, so the key *is* the relation's fingerprint: a mutated
#: database carries different relation objects with different content
#: and simply misses — invalidation is free.  Bounded FIFO under a lock
#: (the engine evaluates from thread pools).
_STATS_MEMO: "OrderedDict[Relation, RelationStats]" = OrderedDict()
_STATS_MEMO_SIZE = 512
_STATS_LOCK = threading.Lock()


def relation_stats(relation: "Relation") -> RelationStats:
    """Statistics for one relation, cached on its content."""
    with _STATS_LOCK:
        cached = _STATS_MEMO.get(relation)
        if cached is not None:
            _STATS_MEMO.move_to_end(relation)
            return cached
    stats = compute_relation_stats(relation)
    with _STATS_LOCK:
        _STATS_MEMO[relation] = stats
        while len(_STATS_MEMO) > _STATS_MEMO_SIZE:
            _STATS_MEMO.popitem(last=False)
    return stats


class Stats:
    """Lazy statistics provider over one database.

    Construction scans nothing; each relation is summarised on first
    request (and served from the content-addressed cache thereafter).
    A sharded fragment gets a provider over its *own* fragment data, so
    per-fragment planning never waits for the coalesced database.
    """

    def __init__(self, database: "Database"):
        self._database = database
        self._by_name: dict[str, RelationStats | None] = {}
        self._adom_size: int | None = None
        self._key: tuple | None = None

    def relation(self, name: str) -> RelationStats | None:
        """Statistics for the named relation, or None if absent."""
        if name not in self._by_name:
            relation = self._database.get(name)
            self._by_name[name] = (
                None if relation is None else relation_stats(relation)
            )
        return self._by_name[name]

    def active_domain_size(self) -> int:
        """``|adom(D)|`` — sizes ``Dom^k`` estimates."""
        if self._adom_size is None:
            self._adom_size = len(self._database.active_domain())
        return self._adom_size

    def key(self) -> tuple:
        """A stable hashable rendering of the whole database's statistics.

        Folding this into :func:`repro.algebra.optimize.optimize_plan`'s
        memo key is what makes stats-driven plans safe to memoise: a
        mutated database produces a different key and replans, while two
        statistically identical databases share the cached plan.
        """
        if self._key is None:
            names = sorted(self._database.relation_names())
            self._key = (
                tuple((name, self.relation(name).key()) for name in names),
                self.active_domain_size(),
            )
        return self._key


@dataclass(frozen=True)
class Estimate:
    """Estimated output of one plan node.

    ``rows`` is the estimated cardinality (bag); ``distinct`` and
    ``nulls`` map each output attribute to its estimated distinct-value
    and null-row counts.  All floats: estimates multiply and divide.
    """

    rows: float
    distinct: dict
    nulls: dict

    def distinct_of(self, attribute: str) -> float:
        return max(1.0, self.distinct.get(attribute, self.rows))

    def nulls_of(self, attribute: str) -> float:
        return self.nulls.get(attribute, 0.0)


def _clamp(value: float, low: float, high: float) -> float:
    return max(low, min(high, value))


class PlanEstimator:
    """Cardinality estimation over :mod:`repro.algebra.ast` plans.

    One instance per (schema, stats) pair; node estimates are memoised
    (plans share subtrees heavily — the Figure 2 pairs almost entirely),
    so re-estimating a growing join tree during greedy enumeration stays
    cheap.
    """

    def __init__(self, schema: "DatabaseSchema", stats: Stats):
        self.schema = schema
        self.stats = stats
        self._memo: dict[ra.Query, Estimate] = {}

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def estimate(self, node: ra.Query) -> Estimate:
        """The estimated output of ``node``."""
        cached = self._memo.get(node)
        if cached is None:
            cached = self._estimate(node)
            self._memo[node] = cached
        return cached

    def cost(self, node: ra.Query) -> float:
        """``C_out``: the sum of estimated cardinalities over all nodes.

        The classic cost proxy — every intermediate result must be
        produced, so plans that keep intermediates small win.  This is
        the number the ``strategy="auto"`` planner compares.
        """
        total = self.estimate(node).rows
        for child in node.children():
            total += self.cost(child)
        return total

    # ------------------------------------------------------------------
    # Per-node estimation
    # ------------------------------------------------------------------
    def _estimate(self, node: ra.Query) -> Estimate:
        method = getattr(self, f"_est_{type(node).__name__}", None)
        if method is not None:
            return method(node)
        # Unknown operator: assume it passes its children through.
        children = node.children()
        if children:
            return self.estimate(children[0])
        return Estimate(DEFAULT_ROWS, {}, {})

    def _est_RelationRef(self, node: ra.RelationRef) -> Estimate:
        stats = self.stats.relation(node.name)
        if stats is None:
            attrs = node.output_attributes(self.schema)
            return Estimate(
                DEFAULT_ROWS,
                {a: DEFAULT_ROWS for a in attrs},
                {a: 0.0 for a in attrs},
            )
        rows = float(max(stats.total, stats.rows))
        return Estimate(
            rows,
            dict(zip(stats.attributes, (float(d) for d in stats.distinct))),
            dict(zip(stats.attributes, (float(n) for n in stats.nulls))),
        )

    def _est_ConstantRelation(self, node: ra.ConstantRelation) -> Estimate:
        rows = float(len(node.rows))
        distinct = {}
        nulls = {}
        for position, attribute in enumerate(node.attributes):
            values = [row[position] for row in node.rows]
            distinct[attribute] = float(len(set(values)))
            nulls[attribute] = float(sum(1 for v in values if is_null(v)))
        return Estimate(rows, distinct, nulls)

    def _est_DomainRelation(self, node: ra.DomainRelation) -> Estimate:
        size = float(max(1, self.stats.active_domain_size()))
        arity = len(node.attributes)
        return Estimate(
            size**arity,
            {a: size for a in node.attributes},
            {a: 0.0 for a in node.attributes},
        )

    def _est_ConstrainedDomainRelation(
        self, node: ra.ConstrainedDomainRelation
    ) -> Estimate:
        size = float(max(1, self.stats.active_domain_size()))
        grouped = {a for group in node.groups for a in group}
        bound = {a for a, _value in node.bindings}
        # One value per equality class; bound classes contribute 1.
        rows = 1.0
        for group in node.groups:
            rows *= 1.0 if (set(group) & bound) else size
        for attribute in node.attributes:
            if attribute not in grouped:
                rows *= 1.0 if attribute in bound else size
        distinct = {
            a: (1.0 if a in bound else size) for a in node.attributes
        }
        return Estimate(rows, distinct, {a: 0.0 for a in node.attributes})

    def _est_Selection(self, node: ra.Selection) -> Estimate:
        child = self.estimate(node.child)
        selectivity = self._selectivity(node.condition, child)
        return self._scaled(child, selectivity)

    def _est_Projection(self, node: ra.Projection) -> Estimate:
        child = self.estimate(node.child)
        kept = set(node.attributes)
        return Estimate(
            child.rows,
            {a: d for a, d in child.distinct.items() if a in kept},
            {a: n for a, n in child.nulls.items() if a in kept},
        )

    def _est_Rename(self, node: ra.Rename) -> Estimate:
        child = self.estimate(node.child)
        mapping = node.mapping_dict()
        return Estimate(
            child.rows,
            {mapping.get(a, a): d for a, d in child.distinct.items()},
            {mapping.get(a, a): n for a, n in child.nulls.items()},
        )

    def _est_Product(self, node: ra.Product) -> Estimate:
        left = self.estimate(node.left)
        right = self.estimate(node.right)
        rows = left.rows * right.rows
        distinct = {}
        nulls = {}
        for side, other in ((left, right), (right, left)):
            for attribute, d in side.distinct.items():
                distinct[attribute] = min(d, rows) if rows else 0.0
            for attribute, n in side.nulls.items():
                # Null *fraction* is preserved by the product.
                nulls[attribute] = min(n * max(other.rows, 0.0), rows)
        return Estimate(rows, distinct, nulls)

    def _est_EquiJoin(self, node: ra.EquiJoin) -> Estimate:
        left = self.estimate(node.left)
        right = self.estimate(node.right)
        rows = left.rows * right.rows
        for a, b in node.pairs:
            rows /= max(left.distinct_of(a), right.distinct_of(b), 1.0)
        distinct = {}
        nulls = {}
        key_distinct = {}
        for a, b in node.pairs:
            shared = min(left.distinct_of(a), right.distinct_of(b))
            key_distinct[a] = shared
            key_distinct[b] = shared
        for side, other in ((left, right), (right, left)):
            scale = rows / side.rows if side.rows else 0.0
            for attribute, d in side.distinct.items():
                distinct[attribute] = min(key_distinct.get(attribute, d), rows)
            for attribute, n in side.nulls.items():
                nulls[attribute] = min(n * max(scale, 0.0), rows)
        return Estimate(rows, distinct, nulls)

    def _est_NaturalJoin(self, node: ra.NaturalJoin) -> Estimate:
        left = self.estimate(node.left)
        right = self.estimate(node.right)
        shared = [a for a in left.distinct if a in right.distinct]
        rows = left.rows * right.rows
        for attribute in shared:
            rows /= max(
                left.distinct_of(attribute), right.distinct_of(attribute), 1.0
            )
        distinct = dict(right.distinct)
        distinct.update(left.distinct)
        distinct = {a: min(d, rows) for a, d in distinct.items()}
        nulls = {a: min(n, rows) for a, n in {**right.nulls, **left.nulls}.items()}
        return Estimate(rows, distinct, nulls)

    def _est_Union(self, node: ra.Union) -> Estimate:
        left = self.estimate(node.left)
        right = self.estimate(node.right)
        rows = left.rows + right.rows
        # Set operations are positional; the output keeps left's names.
        right_by_position = list(right.distinct.items())
        distinct = {}
        nulls = {}
        for position, (attribute, d) in enumerate(left.distinct.items()):
            other_d = (
                right_by_position[position][1]
                if position < len(right_by_position)
                else 0.0
            )
            distinct[attribute] = min(d + other_d, rows)
        for attribute, n in left.nulls.items():
            nulls[attribute] = min(n + right.rows, rows)
        return Estimate(rows, distinct, nulls)

    def _est_Difference(self, node: ra.Difference) -> Estimate:
        return self.estimate(node.left)

    def _est_Intersection(self, node: ra.Intersection) -> Estimate:
        left = self.estimate(node.left)
        right = self.estimate(node.right)
        rows = min(left.rows, right.rows)
        return Estimate(
            rows,
            {a: min(d, rows) for a, d in left.distinct.items()},
            {a: min(n, rows) for a, n in left.nulls.items()},
        )

    def _est_SemiJoin(self, node: ra.SemiJoin) -> Estimate:
        return self.estimate(node.left)

    def _est_AntiSemiJoin(self, node: ra.AntiSemiJoin) -> Estimate:
        return self.estimate(node.left)

    def _est_UnifAntiSemiJoin(self, node: ra.UnifAntiSemiJoin) -> Estimate:
        return self.estimate(node.left)

    def _est_Division(self, node: ra.Division) -> Estimate:
        left = self.estimate(node.left)
        right = self.estimate(node.right)
        rows = left.rows / max(right.rows, 1.0)
        kept = {
            a: min(d, rows)
            for a, d in left.distinct.items()
            if a not in right.distinct
        }
        nulls = {
            a: min(n, rows) for a, n in left.nulls.items() if a in kept
        }
        return Estimate(rows, kept, nulls)

    # ------------------------------------------------------------------
    # Condition selectivity
    # ------------------------------------------------------------------
    def _selectivity(self, condition: Condition, child: Estimate) -> float:
        if isinstance(condition, TrueCondition):
            return 1.0
        if isinstance(condition, FalseCondition):
            return 0.0
        if isinstance(condition, And):
            return self._selectivity(condition.left, child) * self._selectivity(
                condition.right, child
            )
        if isinstance(condition, Or):
            left = self._selectivity(condition.left, child)
            right = self._selectivity(condition.right, child)
            return _clamp(left + right - left * right, 0.0, 1.0)
        if isinstance(condition, Not):
            return _clamp(
                1.0 - self._selectivity(condition.operand, child), 0.0, 1.0
            )
        if isinstance(condition, IsNull):
            if isinstance(condition.term, Attr) and child.rows:
                return _clamp(
                    child.nulls_of(condition.term.name) / child.rows, 0.0, 1.0
                )
            return DEFAULT_SELECTIVITY
        if isinstance(condition, IsConst):
            if isinstance(condition.term, Attr) and child.rows:
                return _clamp(
                    1.0 - child.nulls_of(condition.term.name) / child.rows,
                    0.0,
                    1.0,
                )
            return 1.0 - DEFAULT_SELECTIVITY
        if isinstance(condition, Comparison):
            return self._comparison_selectivity(condition, child)
        return DEFAULT_SELECTIVITY

    def _comparison_selectivity(
        self, condition: Comparison, child: Estimate
    ) -> float:
        left, right = condition.left, condition.right
        if isinstance(condition, (Eq, Neq)):
            equality = self._equality_selectivity(left, right, child)
            if isinstance(condition, Eq):
                return equality
            return _clamp(1.0 - equality, 0.0, 1.0)
        return DEFAULT_SELECTIVITY

    def _equality_selectivity(self, left, right, child: Estimate) -> float:
        left_attr = isinstance(left, Attr)
        right_attr = isinstance(right, Attr)
        if left_attr and right_attr:
            return _clamp(
                1.0
                / max(
                    child.distinct_of(left.name), child.distinct_of(right.name)
                ),
                0.0,
                1.0,
            )
        if left_attr or right_attr:
            attribute = left.name if left_attr else right.name
            return _clamp(1.0 / child.distinct_of(attribute), 0.0, 1.0)
        # literal = literal
        try:
            return 1.0 if left.value == right.value else 0.0
        except AttributeError:  # pragma: no cover - defensive
            return DEFAULT_SELECTIVITY

    @staticmethod
    def _scaled(child: Estimate, selectivity: float) -> Estimate:
        selectivity = _clamp(selectivity, 0.0, 1.0)
        rows = child.rows * selectivity
        return Estimate(
            rows,
            {a: min(d, rows) if rows else 0.0 for a, d in child.distinct.items()},
            {a: min(n * selectivity, rows) for a, n in child.nulls.items()},
        )


def estimate_plan(
    node: ra.Query, schema: "DatabaseSchema", stats: Stats
) -> Estimate:
    """Convenience: estimate one plan with a throwaway estimator."""
    return PlanEstimator(schema, stats).estimate(node)


def estimate_cost(node: ra.Query, schema: "DatabaseSchema", stats: Stats) -> float:
    """Convenience: the ``C_out`` cost of one plan (see PlanEstimator.cost)."""
    return PlanEstimator(schema, stats).cost(node)
