"""Randomized SQLite-vs-interpreter backend equivalence harness.

The metamorphic property that makes ``backend="auto"`` (SQLite pushdown,
:mod:`repro.exec`) safe to keep on by default: for any (query, database),
evaluating with ``backend="auto"`` must be **result-identical** to
``backend="interpreter"`` —

* through the engine, for every registered strategy (all six), tuple for
  tuple including the certain/possible/certainly-false side relations
  and the per-tuple certainty annotations (interpreter-only strategies
  are covered too: an explicit request must still answer identically and
  record the decision);
* under set and bag semantics (naïve is the bag-capable algebra path);
* on monolithic and sharded databases (the backend resolves inside each
  per-fragment strategy call and the merged result aggregates the
  per-shard decisions).

A coverage floor asserts the SQLite path actually compiled a healthy
share of the generated plans — otherwise the harness silently degrades
into interpreter-vs-interpreter.

Databases are tiny (≤ 2 nulls) so ``exact-certain`` stays computable;
the query generator is shared in shape with
``tests/test_optimizer_equivalence.py`` and covers σ (with ∧/self-
comparisons), π, ρ, ×, ∪, −, ∩, ÷ and ⋉ — ÷ is deliberately kept so the
``auto`` fallback path (Division is not SQL-expressible here) is
exercised inside the identity loop, not just in a dedicated test.

The same seeds drive a second generator, of SQL text, for ``sql-3vl``:
its three-valued plan must answer exactly as the SQL evaluator does
(attributes and bag of rows), under set and bag semantics, on both
backends, or fall back to the evaluator; floors keep both paths live.

Seed fixed, overridable via ``REPRO_BACKEND_SEED``; case count via
``REPRO_BACKEND_CASES`` (CI runs a second seed).
"""

from __future__ import annotations

import itertools
import os
import random
from collections import Counter

import pytest

from repro import Database, Engine, Null, Relation
from repro.algebra import builder as rb
from repro.algebra.conditions import And, Attr, Eq, Literal, Neq
from repro.engine import EngineError, StrategyNotApplicableError, available_strategies
from repro.sharding import HashPartitioner, ShardedDatabase
from repro.workloads import GeneratorConfig, RelationSpec, generate_database

SEED = int(os.environ.get("REPRO_BACKEND_SEED", "20260808"))
CASES = int(os.environ.get("REPRO_BACKEND_CASES", "80"))


# ----------------------------------------------------------------------
# Random databases: tiny, with a bounded number of nulls
# ----------------------------------------------------------------------
def _build_database(rng: random.Random) -> Database:
    config = GeneratorConfig(
        relations=(
            RelationSpec("R", ("a", "b"), rng.randint(2, 4)),
            RelationSpec("S", ("c", "d"), rng.randint(2, 4)),
            RelationSpec("T", ("e",), rng.randint(1, 3)),
        ),
        domain_size=4,
        null_rate=0.0,
        seed=rng.randrange(1_000_000),
    )
    db = generate_database(config)
    return _inject_k_nulls(db, rng.randint(0, 2), rng.random() < 0.5, rng)


def _inject_k_nulls(db: Database, k: int, repeated: bool, rng: random.Random) -> Database:
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
    chosen = rng.sample(positions, min(k, len(positions)))
    shared = Null(f"b{rng.randrange(1_000_000)}")
    for index, (name, i, j) in enumerate(chosen):
        null = shared if repeated else Null(f"b{rng.randrange(1_000_000)}_{index}")
        row = list(rows_by_relation[name][i])
        row[j] = null
        rows_by_relation[name][i] = tuple(row)
    return Database(
        {
            name: Relation(db[name].attributes, rows)
            for name, rows in rows_by_relation.items()
        }
    )


# ----------------------------------------------------------------------
# Random queries with valid attribute typing
# ----------------------------------------------------------------------
class _QueryGen:
    def __init__(self, rng: random.Random, schema):
        self.rng = rng
        self.schema = schema
        self._fresh = itertools.count()

    def fresh_attr(self) -> str:
        return f"x{next(self._fresh)}"

    def condition(self, attrs):
        rng = self.rng
        left = Attr(rng.choice(attrs))
        roll = rng.random()
        if roll < 0.1:
            right = left
        elif len(attrs) > 1 and roll < 0.45:
            right = Attr(rng.choice(attrs))
        else:
            right = Literal(f"v{rng.randrange(4)}")
        condition = (Eq if rng.random() < 0.7 else Neq)(left, right)
        if rng.random() < 0.3:
            other = Attr(rng.choice(attrs))
            condition = And(condition, Eq(other, Literal(f"v{rng.randrange(4)}")))
        return condition

    def with_arity(self, arity: int):
        rng = self.rng
        name = rng.choice(["R", "S"] if arity == 2 else ["R", "S", "T"])
        plan = rb.relation(name)
        attrs = list(plan.output_attributes(self.schema))
        while len(attrs) < arity:
            plan = rb.product(plan, rb.rename(rb.relation("T"), {"e": self.fresh_attr()}))
            attrs = list(plan.output_attributes(self.schema))
        if len(attrs) > arity:
            keep = rng.sample(attrs, arity)
            rng.shuffle(keep)
            plan = rb.project(plan, keep)
            attrs = keep
        if rng.random() < 0.4:
            plan = rb.select(plan, self.condition(attrs))
        return plan

    def query(self, depth: int):
        rng = self.rng
        if depth <= 0 or rng.random() < 0.25:
            return rb.relation(rng.choice(["R", "S", "T"]))
        child = self.query(depth - 1)
        attrs = list(child.output_attributes(self.schema))
        op = rng.choices(
            ["select", "project", "rename", "product", "union", "difference",
             "intersection", "division", "semijoin"],
            weights=[22, 12, 8, 22, 12, 10, 6, 4, 4],
        )[0]
        if op == "select":
            return rb.select(child, self.condition(attrs))
        if op == "project":
            keep = rng.sample(attrs, rng.randint(1, len(attrs)))
            return rb.project(child, keep)
        if op == "rename":
            renamed = rng.sample(attrs, rng.randint(1, len(attrs)))
            return rb.rename(child, {a: self.fresh_attr() for a in renamed})
        if op == "product":
            right = self.with_arity(rng.choice([1, 2]))
            right_attrs = right.output_attributes(self.schema)
            disjoint = rb.rename(right, {a: self.fresh_attr() for a in right_attrs})
            plan = rb.product(child, disjoint)
            if rng.random() < 0.75:
                left_attr = rng.choice(attrs)
                right_attr = rng.choice(
                    list(disjoint.output_attributes(self.schema))
                )
                plan = rb.select(plan, Eq(Attr(left_attr), Attr(right_attr)))
            return plan
        if op in ("union", "difference", "intersection"):
            right = self.with_arity(len(attrs))
            build = {"union": rb.union, "difference": rb.difference,
                     "intersection": rb.intersection}[op]
            return build(child, right)
        if op == "division" and len(attrs) >= 2:
            return self.division(child, attrs)
        if op == "semijoin":
            right = self.with_arity(1)
            right_attr = right.output_attributes(self.schema)[0]
            return rb.semijoin(
                child, rb.rename(right, {right_attr: rng.choice(attrs)})
            )
        return child

    def division(self, child=None, attrs=None):
        """``child ÷ divisor``: a plan SQLite cannot express (forces the fallback)."""
        if child is None:
            child = self.with_arity(2)
            attrs = list(child.output_attributes(self.schema))
        divisor = self.with_arity(1)
        divisor_attr = divisor.output_attributes(self.schema)[0]
        return rb.division(child, rb.rename(divisor, {divisor_attr: attrs[-1]}))


# ----------------------------------------------------------------------
# Result comparison: tuple-for-tuple identity
# ----------------------------------------------------------------------
def _assert_identical(reference, pushed, label: str) -> None:
    assert reference.relation.attributes == pushed.relation.attributes, label
    assert reference.relation.rows_bag() == pushed.relation.rows_bag(), (
        f"{label}: primary answers differ\ninterpreter: "
        f"{reference.relation.sorted_rows()}\nauto:        "
        f"{pushed.relation.sorted_rows()}"
    )
    for side in ("certain", "possible", "certainly_false"):
        a, b = getattr(reference, side), getattr(pushed, side)
        assert (a is None) == (b is None), f"{label}: {side} presence differs"
        if a is not None:
            assert a.rows_set() == b.rows_set(), f"{label}: {side} rows differ"
    ref_annotated = Counter(
        (t.row, t.status, t.multiplicity) for t in reference.tuples
    )
    push_annotated = Counter(
        (t.row, t.status, t.multiplicity) for t in pushed.tuples
    )
    assert ref_annotated == push_annotated, f"{label}: annotations differ"


def _resolved_backend(result) -> str | None:
    note = result.metadata.get("backend")
    return note.get("resolved") if isinstance(note, dict) else None


def _evaluate_both(engine, query, db, label, **kwargs):
    """(interpreter, auto) results, or None when both raise alike."""
    try:
        reference = engine.evaluate(
            query, db, backend="interpreter", use_cache=False, **kwargs
        )
    except (StrategyNotApplicableError, EngineError, ValueError, TypeError) as exc:
        try:
            engine.evaluate(query, db, backend="auto", use_cache=False, **kwargs)
        except type(exc):
            return None
        raise AssertionError(
            f"{label}: the interpreter raised {type(exc).__name__} but the "
            "auto-backend evaluation did not"
        )
    pushed = engine.evaluate(query, db, backend="auto", use_cache=False, **kwargs)
    _assert_identical(reference, pushed, label)
    assert _resolved_backend(reference) == "interpreter", label
    return reference, pushed


def _run_case(engine: Engine, rng: random.Random, case: int) -> Counter:
    db = _build_database(rng)
    gen = _QueryGen(rng, db.schema())
    # Case 0 is a ÷ plan under every seed, so the fallback path the
    # ("naive", "interpreter") floor counts always runs.
    query = gen.division() if case == 0 else gen.query(rng.randint(1, 3))
    label_base = f"case {case} (seed {SEED})"
    resolved: Counter = Counter()

    for strategy in available_strategies():
        pair = _evaluate_both(
            engine, query, db, f"{label_base}, strategy {strategy}",
            strategy=strategy,
        )
        if pair is not None:
            resolved[(strategy, _resolved_backend(pair[1]))] += 1

    # Bag semantics through the engine (naïve is the bag-capable algebra path).
    pair = _evaluate_both(
        engine, query, db, f"{label_base}, naive (bag)", strategy="naive",
        semantics="bag",
    )
    if pair is not None:
        resolved[("naive-bag", _resolved_backend(pair[1]))] += 1

    # Sharded evaluation: the backend resolves inside each per-fragment
    # strategy call; the merged metadata aggregates the decisions.
    sharded = ShardedDatabase.from_database(
        db, rng.choice([2, 3]), HashPartitioner()
    )
    for strategy in ("naive", "approx-guagliardo16"):
        pair = _evaluate_both(
            engine, query, sharded, f"{label_base}, sharded {strategy}",
            strategy=strategy,
        )
        if pair is not None:
            resolved[("sharded", _resolved_backend(pair[1]))] += 1

    # Tracing observes, never steers (repro.obs): a traced evaluation
    # must be result-identical to the untraced one — same tuples, same
    # annotations, same metadata — except for the exported span tree
    # riding result.metadata["trace"].  Half the cases run the check on
    # the sharded database so SpanContext propagation into shard tasks
    # is inside the randomized loop, not just in a dedicated test.
    target = sharded if rng.random() < 0.5 else db
    strategy = rng.choice(("naive", "approx-guagliardo16"))
    try:
        untraced = engine.evaluate(query, target, strategy=strategy, use_cache=False)
    except (StrategyNotApplicableError, EngineError, ValueError, TypeError):
        untraced = None
    if untraced is not None:
        traced = engine.evaluate(
            query, target, strategy=strategy, use_cache=False, trace=True
        )
        label = f"{label_base}, traced {strategy}"
        _assert_identical(untraced, traced, label)
        assert "trace" not in untraced.metadata, label
        assert traced.metadata.get("trace"), label
        stripped = {k: v for k, v in traced.metadata.items() if k != "trace"}
        assert stripped == untraced.metadata, (
            f"{label}: tracing changed the metadata"
        )
    return resolved


def test_sqlite_matches_interpreter_randomized():
    engine = Engine()
    resolved: Counter = Counter()
    for case in range(CASES):
        rng = random.Random(SEED * 1_000_003 + case)
        resolved += _run_case(engine, rng, case)
    # Coverage floors: the pushdown path must actually run, for the
    # monolithic strategies, under bag semantics, and on shards —
    # otherwise the harness is comparing the interpreter with itself.
    assert resolved[("naive", "sqlite")] >= CASES // 2, resolved
    assert resolved[("naive-bag", "sqlite")] >= CASES // 2, resolved
    assert resolved[("approx-guagliardo16", "sqlite")] >= CASES // 10, resolved
    assert resolved[("sharded", "sqlite")] >= CASES // 4, resolved
    # ...and the fallback path must run too (÷ plans are generated on
    # purpose), so requested-vs-resolved divergence is exercised.
    assert resolved[("naive", "interpreter")] >= 1, resolved


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
    for case in range(CASES):
        rng = random.Random(SEED * 1_000_003 + case)
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
                        (got.metadata["evaluator"], _resolved_backend(got))
                    ] += 1
    # Both sides of the lowering must run: plans (on both backends) and
    # fallbacks to the evaluator.
    assert evaluators[("plan", "interpreter")] >= CASES, evaluators
    assert evaluators[("plan", "sqlite")] >= CASES // 4, evaluators
    assert evaluators[("sql-evaluator", "interpreter")] >= CASES, evaluators
