"""SQLite-backend pins and the ``sql-3vl`` SQL sweep.

The randomized SQLite-vs-interpreter identity (``backend="auto"``
against ``backend="interpreter"``, every strategy, with its coverage
floors, crossed with every other engine knob) lives in
``tests/test_differential.py``; ``test_sqlite_matches_interpreter_randomized``
runs its backend axis alone.  This file keeps the explicit
``backend="sqlite"`` error contract, the recorded auto fallback, and a
sweep of its own over random SQL text: the three-valued plan of
``sql-3vl`` must answer exactly as the SQL evaluator does (attributes
and bag of rows), under set and bag semantics, on both backends, or
fall back to the evaluator; floors keep both paths live.

The SQL sweep runs a quarter of ``REPRO_DIFF_CASES`` cases (each runs
four queries under two semantics and three configurations) from
``REPRO_DIFF_SEED``.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from differential import CASES, SEED, _build_database, _inject_k_nulls, case_rng
from repro import Engine
from repro.algebra import builder as rb
from repro.engine import EngineError, StrategyNotApplicableError
from test_differential import slice_rows, sweep

SQL_CASES = max(1, CASES // 4)


def test_explicit_sqlite_on_interpreter_only_strategy_raises():
    rng = random.Random(SEED)
    db = _build_database(rng)
    engine = Engine()
    for strategy in ("exact-certain", "approx-libkin16", "ctables"):
        with pytest.raises(StrategyNotApplicableError, match="backends"):
            engine.evaluate(
                rb.relation("R"), db, strategy=strategy, backend="sqlite",
                use_cache=False,
            )


def test_explicit_sqlite_on_sql_3vl_resolves_to_sqlite():
    rng = random.Random(SEED)
    db = _build_database(rng)
    result = Engine().evaluate(
        "SELECT a FROM R WHERE b = 'v1'", db, strategy="sql-3vl", backend="sqlite",
        use_cache=False,
    )
    assert result.metadata["evaluator"] == "plan"
    assert result.metadata["backend"]["resolved"] == "sqlite"


def test_explicit_sqlite_on_inexpressible_plan_raises():
    rng = random.Random(SEED)
    db = _build_database(rng)
    division = rb.division(
        rb.relation("R"),
        rb.rename(rb.project(rb.relation("T"), ("e",)), {"e": "b"}),
    )
    with pytest.raises(EngineError, match="cannot execute this plan"):
        Engine().evaluate(
            division, db, strategy="naive", backend="sqlite", use_cache=False
        )


def test_auto_fallback_decision_is_recorded():
    rng = random.Random(SEED)
    db = _build_database(rng)
    division = rb.division(
        rb.relation("R"),
        rb.rename(rb.project(rb.relation("T"), ("e",)), {"e": "b"}),
    )
    result = Engine().evaluate(
        division, db, strategy="naive", backend="auto", use_cache=False
    )
    note = result.metadata["backend"]
    assert note["requested"] == "auto"
    assert note["resolved"] == "interpreter"
    assert "Division" in note["reason"]


# ----------------------------------------------------------------------
# sql-3vl: the three-valued plan against the SQL evaluator
# ----------------------------------------------------------------------
_SQL_TABLES = {"R": ("a", "b"), "S": ("c", "d"), "T": ("e",)}
_SQL_LITERALS = ("'v0'", "'v1'", "'v2'", "'v3'", "1", "2.5")


class _SqlGen:
    """Random SQL over R(a, b), S(c, d), T(e) for the sql-3vl lowering.

    Covers the lowering's refusal table on purpose: ``IN``/``NOT IN``,
    correlated and uncorrelated ``[NOT] EXISTS`` (with ``inner = outer``
    correlations and, sometimes, a ``<>`` one), ``DISTINCT``, the set
    operations with and without ``ALL``, and ``NOT`` over order
    comparisons against numeric literals — cross-type on this string data.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self._aliases = itertools.count()

    def query(self) -> str:
        rng = self.rng
        if rng.random() < 0.4:
            op = rng.choice(["UNION", "EXCEPT", "INTERSECT"])
            suffix = " ALL" if rng.random() < 0.5 else ""
            arity = rng.choice([1, 2])
            # A left operand over two tables projects columns away, so its
            # rows repeat more often than the right's and the ALL forms
            # differ from the plain ones.
            left = self.select(arity, wide=0.9, most=1)
            right = self.select(arity, wide=0.0, most=1)
            return f"{left} {op}{suffix} {right}"
        return self.select(rng.choice([1, 2]))

    def from_clause(self, min_columns: int, wide: float):
        tables, columns = [], []
        while not tables or len(columns) < min_columns or (
            len(tables) < 2 and self.rng.random() < wide
        ):
            name = self.rng.choice(list(_SQL_TABLES))
            alias = f"t{next(self._aliases)}"
            tables.append(f"{name} {alias}")
            columns += [(alias, column) for column in _SQL_TABLES[name]]
        return ", ".join(tables), columns

    def column(self, columns) -> str:
        alias, column = self.rng.choice(columns)
        # Unqualified now and then: ambiguous when a table repeats.
        return column if self.rng.random() < 0.15 else f"{alias}.{column}"

    def select(
        self, arity: int, outer=None, depth: int = 0, wide: float = 0.3, most: int = 2
    ) -> str:
        rng = self.rng
        tables, columns = self.from_clause(arity, wide)
        items = ", ".join(f"{a}.{c}" for a, c in rng.sample(columns, arity))
        distinct = "DISTINCT " if rng.random() < 0.2 else ""
        text = f"SELECT {distinct}{items} FROM {tables}"
        count = rng.randint(0 if outer is None else 1, most)
        conjuncts = [self.conjunct(columns, outer, depth) for _ in range(count)]
        if conjuncts:
            text += " WHERE " + " AND ".join(conjuncts)
        return text

    def comparison(self, columns) -> str:
        rng = self.rng
        op = rng.choice(["=", "<>", "<", "<=", ">", ">="])
        right = self.column(columns) if rng.random() < 0.4 else rng.choice(_SQL_LITERALS)
        return f"{self.column(columns)} {op} {right}"

    def conjunct(self, columns, outer, depth: int) -> str:
        rng = self.rng
        # Subqueries nest at most two deep: the evaluator re-runs a
        # subquery per outer row, so deeper nests only cost time.
        roll = rng.random() * (1.0 if depth < 2 else 0.56)
        if outer is not None and roll < 0.5:
            inner_column = self.column(columns)
            outer_column = rng.choice(outer)
            op = "=" if rng.random() < 0.6 else "<>"
            return f"{inner_column} {op} {outer_column}"
        if roll < 0.3:
            return self.comparison(columns)
        if roll < 0.38:
            negated = " NOT" if rng.random() < 0.5 else ""
            return f"{self.column(columns)} IS{negated} NULL"
        if roll < 0.48:
            return f"NOT ({self.comparison(columns)})"
        if roll < 0.56:
            return f"({self.comparison(columns)} OR {self.comparison(columns)})"
        if roll < 0.72:
            negated = " NOT" if rng.random() < 0.5 else ""
            return f"{self.column(columns)}{negated} IN ({self.select(1, depth=depth + 1)})"
        negated = "NOT " if rng.random() < 0.5 else ""
        outer_refs = [f"{a}.{c}" for a, c in columns] if rng.random() < 0.7 else None
        star = rng.random() < 0.5
        sub = self.select(1, outer=outer_refs, depth=depth + 1)
        if star:
            sub = "SELECT * FROM" + sub.split(" FROM", 1)[1]
        return f"{negated}EXISTS ({sub})"


def _outcome(call):
    """``(result, None)``, or ``(None, error)`` when ``call`` raises."""
    try:
        return call(), None
    except ValueError as exc:
        return None, exc


def test_sql_3vl_plan_matches_sql_evaluator_randomized():
    from repro.sql import SqlEvaluator

    engine = Engine()
    configs = (
        dict(backend="interpreter", optimize=False),
        dict(backend="interpreter"),
        dict(backend="auto"),
    )
    evaluators: Counter = Counter()
    for case in range(SQL_CASES):
        rng = case_rng(case)
        # A few more nulls than the algebra cases use: NULL handling is
        # where SQL and a naive plan part ways.
        db = _inject_k_nulls(
            _build_database(rng), rng.randint(0, 3), rng.random() < 0.5, rng
        )
        gen = _SqlGen(rng)
        for _ in range(4):
            sql = gen.query()
            for semantics in ("set", "bag"):
                label = f"case {case} (seed {SEED}), {semantics}: {sql}"
                expected, error = _outcome(lambda: SqlEvaluator(db).run(sql))
                if expected is not None and semantics == "set":
                    expected = expected.distinct()
                for config in configs:
                    got, got_error = _outcome(
                        lambda: engine.evaluate(
                            sql, db, strategy="sql-3vl", semantics=semantics,
                            use_cache=False, **config,
                        )
                    )
                    if error is not None:
                        assert got_error is not None, f"{label} {config}: no error"
                        continue
                    assert got_error is None, f"{label} {config}: {got_error!r}"
                    assert got.relation.attributes == expected.attributes, label
                    assert got.relation.rows_bag() == expected.rows_bag(), (
                        f"{label} {config}\nplan:      "
                        f"{sorted(got.relation.rows_bag().items(), key=str)}\n"
                        f"evaluator: {sorted(expected.rows_bag().items(), key=str)}"
                    )
                    evaluators[
                        (got.metadata["evaluator"], got.metadata["backend"]["resolved"])
                    ] += 1
    # Both sides of the lowering must run: plans (on both backends) and
    # fallbacks to the evaluator.
    assert evaluators[("plan", "interpreter")] >= SQL_CASES, evaluators
    assert evaluators[("plan", "sqlite")] >= SQL_CASES // 4, evaluators
    assert evaluators[("sql-evaluator", "interpreter")] >= SQL_CASES, evaluators


def test_sqlite_matches_interpreter_randomized():
    """The backend axis alone (traced and untraced, set and bag,
    monolithic and sharded): ``backend="auto"`` against the
    interpreter, with every SQLite-resolution floor."""
    sweep(slice_rows(backend=("auto",), semantics=("set", "bag"), shards=(0, 2),
                     trace=(False, True)))
