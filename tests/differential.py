"""The randomized differential harness, shared by the test suite.

One copy of each piece the differential tests need:

* a case generator — tiny random databases (:func:`_build_database`,
  :func:`_inject_k_nulls`) and random algebra plans over them
  (:class:`_QueryGen`);
* a pair evaluator (:func:`_evaluate_pair`): the reference and the
  configured evaluation either refuse the query alike or answer
  identically;
* an identity check (:func:`_assert_identical`): attributes, the bag of
  rows, the certain/possible/certainly-false side relations and every
  tuple's ``(row, status, multiplicity)``;
* the paper's soundness chain (:func:`_assert_soundness_chain`)::

      Q+  ⊆  cert⊥  ⊆  naive     (and Qt ⊆ cert⊥, ctables ⊆ cert⊥,
                                   cert⊥ ⊆ Q?)

``tests/test_differential.py`` crosses every engine knob through a
pairwise covering array with these helpers.  Databases stay tiny (at
most two marked nulls) so ``exact-certain`` remains computable.
``REPRO_DIFF_SEED`` picks the seed and ``REPRO_DIFF_CASES`` the case
count, so a failure replays exactly.
"""

from __future__ import annotations

import itertools
import os
import random
from collections import Counter
from typing import Any, Callable, Mapping

from repro import Database, Null, Relation
from repro.algebra import builder as rb
from repro.algebra.conditions import And, Attr, Eq, Literal, Neq
from repro.engine import EngineError, StrategyNotApplicableError
from repro.workloads import GeneratorConfig, RelationSpec, generate_database

SEED = int(os.environ.get("REPRO_DIFF_SEED", "20260728"))
CASES = int(os.environ.get("REPRO_DIFF_CASES", "320"))

#: The errors a strategy refuses a query with (an operator it cannot
#: translate, bag semantics it does not support, ...).
REFUSALS = (StrategyNotApplicableError, EngineError, ValueError, TypeError)


def case_rng(case: int) -> random.Random:
    """The generator of case ``case`` under :data:`SEED`."""
    return random.Random(SEED * 1_000_003 + case)


# ----------------------------------------------------------------------
# Random databases: R(a, b), S(c, d), T(e) with 0–2 marked nulls
# ----------------------------------------------------------------------
def _build_database(
    rng: random.Random, *, skew: float = 0.5, null_density: float = 0.5
) -> Database:
    """A tiny database over a four-value domain.

    ``skew`` is the chance that relation sizes come from the wide range
    (1–6 rows) rather than 2–4: with near-equal inputs, estimate-driven
    plans agree with the written order and statistics have nothing to
    decide.  ``null_density`` weighs one or two nulls against none
    (0.5 makes 0, 1 and 2 equally likely); half the time the nulls are
    one repeated marked null.
    """
    wide = rng.random() < skew
    sizes = ((1, 6), (1, 6), (1, 4)) if wide else ((2, 4), (2, 4), (1, 3))
    names = (("R", ("a", "b")), ("S", ("c", "d")), ("T", ("e",)))
    config = GeneratorConfig(
        relations=tuple(
            RelationSpec(name, attrs, rng.randint(*size))
            for (name, attrs), size in zip(names, sizes)
        ),
        domain_size=4,
        null_rate=0.0,
        seed=rng.randrange(1_000_000),
    )
    k = rng.choices((0, 1, 2), weights=(1 - null_density, null_density, null_density))[0]
    return _inject_k_nulls(generate_database(config), k, rng.random() < 0.5, rng)


def _inject_k_nulls(db: Database, k: int, repeated: bool, rng: random.Random) -> Database:
    """Replace ``k`` value occurrences with nulls (one shared null if
    ``repeated``)."""
    if k == 0:
        return db
    rows_by_relation = {
        name: list(relation.iter_rows_bag()) for name, relation in db.relations()
    }
    positions = [
        (name, i, j)
        for name, rows in rows_by_relation.items()
        for i, row in enumerate(rows)
        for j in range(len(row))
    ]
    shared = Null(f"h{rng.randrange(1_000_000)}")
    for index, (name, i, j) in enumerate(rng.sample(positions, min(k, len(positions)))):
        row = list(rows_by_relation[name][i])
        row[j] = shared if repeated else Null(f"h{rng.randrange(1_000_000)}_{index}")
        rows_by_relation[name][i] = tuple(row)
    return Database(
        {name: Relation(db[name].attributes, rows) for name, rows in rows_by_relation.items()}
    )


# ----------------------------------------------------------------------
# Random plans with valid attribute typing
# ----------------------------------------------------------------------
class _QueryGen:
    """Random plans over σ (with ∧ and self-comparisons), π, ρ, × (with
    cross-side equalities), ∪, −, ∩, ÷ and ⋉, plus three-leaf join
    towers — every logical rewrite, the equi-join and reorder rules,
    both shard paths and the SQLite fallback (÷) get exercised."""

    OPS = ("select", "project", "rename", "product", "union", "difference",
           "intersection", "division", "semijoin")
    WEIGHTS = (22, 12, 8, 24, 12, 10, 6, 5, 5)
    TOWER_RATE = 0.12

    def __init__(self, rng: random.Random, schema):
        self.rng = rng
        self.schema = schema
        self._fresh = itertools.count()

    def fresh_attr(self) -> str:
        return f"x{next(self._fresh)}"

    def attrs(self, plan) -> list[str]:
        return list(plan.output_attributes(self.schema))

    def condition(self, attrs):
        rng = self.rng
        left = Attr(rng.choice(attrs))
        roll = rng.random()
        if roll < 0.1:
            right = left  # self-comparison: the mode-gated trivial rules
        elif len(attrs) > 1 and roll < 0.45:
            right = Attr(rng.choice(attrs))
        else:
            right = Literal(f"v{rng.randrange(4)}")
        condition = (Eq if rng.random() < 0.7 else Neq)(left, right)
        if rng.random() < 0.3:  # conjunctions: split-conjunction, pushdowns
            other = Attr(rng.choice(attrs))
            condition = And(condition, Eq(other, Literal(f"v{rng.randrange(4)}")))
        return condition

    def with_arity(self, arity: int):
        """A small plan with exactly ``arity`` output attributes."""
        rng = self.rng
        plan = rb.relation(rng.choice(["R", "S"] if arity == 2 else ["R", "S", "T"]))
        attrs = self.attrs(plan)
        while len(attrs) < arity:  # widen with renamed T columns
            plan = rb.product(plan, rb.rename(rb.relation("T"), {"e": self.fresh_attr()}))
            attrs = self.attrs(plan)
        if len(attrs) > arity:
            attrs = rng.sample(attrs, arity)
            plan = rb.project(plan, attrs)
        if rng.random() < 0.4:
            plan = rb.select(plan, self.condition(attrs))
        return plan

    def disjoint(self, plan):
        """``plan`` with every attribute renamed fresh."""
        return rb.rename(plan, {a: self.fresh_attr() for a in self.attrs(plan)})

    def tower(self):
        """A σ-stack over a ×-tower of three leaves, the third joined to
        each of the first two but those two not to each other: written
        order builds a cartesian product that join reordering avoids."""
        rng = self.rng
        leaves = [self.disjoint(rb.relation(name)) for name in rng.sample(["R", "S", "T"], 3)]
        plan = rb.product(rb.product(leaves[0], leaves[1]), leaves[2])
        third = self.attrs(leaves[2])
        for leaf in leaves[:2]:
            plan = rb.select(
                plan, Eq(Attr(rng.choice(self.attrs(leaf))), Attr(rng.choice(third)))
            )
        return plan

    def query(self, depth: int):
        rng = self.rng
        if rng.random() < self.TOWER_RATE:
            return self.tower()
        if depth <= 0 or rng.random() < 0.25:
            return rb.relation(rng.choice(["R", "S", "T"]))
        child = self.query(depth - 1)
        attrs = self.attrs(child)
        op = rng.choices(self.OPS, weights=self.WEIGHTS)[0]
        if op == "select":
            return rb.select(child, self.condition(attrs))
        if op == "project":
            return rb.project(child, rng.sample(attrs, rng.randint(1, len(attrs))))
        if op == "rename":
            renamed = rng.sample(attrs, rng.randint(1, len(attrs)))
            return rb.rename(child, {a: self.fresh_attr() for a in renamed})
        if op == "product" and len(attrs) <= 4:  # ≤ 6 columns: Figure 2a builds Dom^k
            right = self.disjoint(self.with_arity(rng.choice([1, 2])))
            plan = rb.product(child, right)
            if rng.random() < 0.75:  # cross-side equality: the equi-join trigger
                plan = rb.select(
                    plan, Eq(Attr(rng.choice(attrs)), Attr(rng.choice(self.attrs(right))))
                )
            return plan
        if op in ("union", "difference", "intersection"):
            build = {"union": rb.union, "difference": rb.difference,
                     "intersection": rb.intersection}[op]
            return build(child, self.with_arity(len(attrs)))
        if op == "division" and len(attrs) >= 2:
            return self.division(child)
        if op == "semijoin":
            right = self.with_arity(1)
            return rb.semijoin(
                child, rb.rename(right, {self.attrs(right)[0]: rng.choice(attrs)})
            )
        return child

    def division(self, child=None):
        """``child ÷ divisor`` — a plan SQLite cannot express, so
        ``backend="auto"`` falls back to the interpreter."""
        if child is None:
            child = self.with_arity(2)
        divisor = self.with_arity(1)
        return rb.division(
            child, rb.rename(divisor, {self.attrs(divisor)[0]: self.attrs(child)[-1]})
        )


# ----------------------------------------------------------------------
# Pair evaluation, identity and the soundness chain
# ----------------------------------------------------------------------
def _outcome(call: Callable[[], Any]) -> tuple[Any, BaseException | None]:
    """``(result, None)``, or ``(None, error)`` when ``call`` refuses."""
    try:
        return call(), None
    except REFUSALS as exc:
        return None, exc


def _evaluate_pair(expected: tuple[Any, BaseException | None], configured, label: str):
    """Evaluate ``configured`` against the reference outcome ``expected``.

    Either both refuse with the same kind of error (returns ``None``), or
    both answer and the answers are identical (returns the configured
    result).
    """
    reference, error = expected
    actual, actual_error = _outcome(configured)
    if error is not None or actual_error is not None:
        assert error is not None and isinstance(actual_error, type(error)), (
            f"{label}: the reference raised {error!r} but the configured "
            f"evaluation raised {actual_error!r}"
        )
        return None
    _assert_identical(reference, actual, label)
    return actual


def _assert_identical(expected, actual, label: str) -> None:
    """Tuple-for-tuple and annotation-for-annotation identity."""
    assert expected.strategy == actual.strategy, f"{label}: strategies differ"
    assert expected.relation.attributes == actual.relation.attributes, label
    assert expected.relation.rows_bag() == actual.relation.rows_bag(), (
        f"{label}: primary answers differ\nexpected: {expected.relation.sorted_rows()}"
        f"\nactual:   {actual.relation.sorted_rows()}"
    )
    for side in ("certain", "possible", "certainly_false"):
        a, b = getattr(expected, side), getattr(actual, side)
        assert (a is None) == (b is None), f"{label}: {side} presence differs"
        if a is not None:
            assert a.rows_set() == b.rows_set(), f"{label}: {side} rows differ"
    annotated = [
        Counter((t.row, t.status, t.multiplicity) for t in result.tuples)
        for result in (expected, actual)
    ]
    assert annotated[0] == annotated[1], f"{label}: annotations differ"


def _assert_soundness_chain(results: Mapping[str, Any], label: str) -> bool:
    """Q+ ⊆ cert⊥ ⊆ naive, Qt ⊆ cert⊥, ctables ⊆ cert⊥ and cert⊥ ⊆ Q?
    over set-semantics results keyed by strategy.  Returns whether the
    chain was checked (it needs ``exact-certain``)."""
    if "exact-certain" not in results:
        return False
    cert = results["exact-certain"].relation.rows_set()
    if "approx-guagliardo16" in results:
        guag = results["approx-guagliardo16"]
        assert guag.certain.rows_set() <= cert, f"{label}: Q+ ⊄ cert"
        assert cert <= guag.possible.rows_set(), f"{label}: cert ⊄ Q?"
    for strategy, name in (("approx-libkin16", "Qt"), ("ctables", "ctables certain")):
        if strategy in results:
            assert results[strategy].certain.rows_set() <= cert, f"{label}: {name} ⊄ cert"
    if "naive" in results:
        assert cert <= results["naive"].relation.rows_set(), f"{label}: cert ⊄ naive"
    return True
