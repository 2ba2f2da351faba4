"""Randomized shard-vs-monolith equivalence and soundness harness.

The metamorphic property that makes the sharding refactor safe: for any
(query, database, shard count, partitioner), evaluating on a
:class:`~repro.sharding.ShardedDatabase` must be **result-identical** to
monolithic evaluation for every registered strategy — tuple for tuple,
including the certain/possible side relations and the per-tuple
annotations.  Whether the engine distributed the plan or coalesced it is
an implementation detail recorded in ``metadata["sharding"]``.

On top of equivalence, the paper's soundness chain must keep holding
under sharding::

    Q+  ⊆  cert⊥  ⊆  naive          (and Qt ⊆ cert⊥, ctables ⊆ cert⊥,
    cert⊥ ⊆ Q?)

The databases are deliberately tiny (≤ 2 nulls) so the exact certain
answers stay computable; the query generator covers σ, π, ρ, ×, ∪, −,
∩, ÷ and ⋉, which exercises both the distributed path and the coalesced
fallback.

The seed is fixed (overridable via ``REPRO_SHARDING_SEED``; case count
via ``REPRO_SHARDING_CASES``) so CI runs are reproducible.
"""

from __future__ import annotations

import itertools
import os
import random
from collections import Counter

from repro import Database, Engine, Null, Relation
from repro.algebra import builder as rb
from repro.algebra.conditions import Attr, Eq, Literal, Neq
from repro.engine import EngineError, StrategyNotApplicableError, available_strategies
from repro.sharding import HashPartitioner, RoundRobinPartitioner, ShardedDatabase
from repro.workloads import GeneratorConfig, RelationSpec, generate_database

SEED = int(os.environ.get("REPRO_SHARDING_SEED", "20260728"))
CASES = int(os.environ.get("REPRO_SHARDING_CASES", "200"))

PARTITIONERS = (
    lambda: HashPartitioner(),
    lambda: RoundRobinPartitioner(),
)


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
    """Replace exactly ``k`` value occurrences with nulls."""
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
    shared = Null(f"h{rng.randrange(1_000_000)}")
    for index, (name, i, j) in enumerate(chosen):
        null = shared if repeated else Null(f"h{rng.randrange(1_000_000)}_{index}")
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
        if len(attrs) > 1 and rng.random() < 0.4:
            right = Attr(rng.choice(attrs))
        else:
            right = Literal(f"v{rng.randrange(4)}")
        return (Eq if rng.random() < 0.7 else Neq)(left, right)

    def with_arity(self, arity: int):
        """A small plan with exactly ``arity`` output attributes."""
        rng = self.rng
        name = rng.choice(["R", "S"] if arity == 2 else ["R", "S", "T"])
        plan = rb.relation(name)
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
            weights=[22, 14, 8, 14, 12, 10, 8, 6, 6],
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
            disjoint = rb.rename(
                right, {a: self.fresh_attr() for a in right_attrs}
            )
            return rb.product(child, disjoint)
        if op in ("union", "difference", "intersection"):
            right = self.with_arity(len(attrs))
            build = {"union": rb.union, "difference": rb.difference,
                     "intersection": rb.intersection}[op]
            return build(child, right)
        if op == "division" and len(attrs) >= 2:
            divisor = self.with_arity(1)
            divisor_attr = divisor.output_attributes(self.schema)[0]
            return rb.division(
                child, rb.rename(divisor, {divisor_attr: attrs[-1]})
            )
        if op == "semijoin":
            right = self.with_arity(1)
            right_attr = right.output_attributes(self.schema)[0]
            return rb.semijoin(
                child, rb.rename(right, {right_attr: rng.choice(attrs)})
            )
        return child


# ----------------------------------------------------------------------
# Result comparison: tuple-for-tuple identity
# ----------------------------------------------------------------------
def _assert_identical(mono, shard, label: str) -> None:
    assert mono.relation.attributes == shard.relation.attributes, label
    assert mono.relation.rows_bag() == shard.relation.rows_bag(), (
        f"{label}: primary answers differ\nmono:  {mono.relation.sorted_rows()}"
        f"\nshard: {shard.relation.sorted_rows()}"
    )
    for side in ("certain", "possible", "certainly_false"):
        a, b = getattr(mono, side), getattr(shard, side)
        assert (a is None) == (b is None), f"{label}: {side} presence differs"
        if a is not None:
            assert a.rows_set() == b.rows_set(), f"{label}: {side} rows differ"
    mono_annotated = Counter((t.row, t.status, t.multiplicity) for t in mono.tuples)
    shard_annotated = Counter((t.row, t.status, t.multiplicity) for t in shard.tuples)
    assert mono_annotated == shard_annotated, f"{label}: annotations differ"


def _uses_operators(query, names) -> bool:
    from repro.algebra import ast as ra

    return any(type(node).__name__ in names for node in ra.walk(query))


def _run_case(engine: Engine, rng: random.Random, case: int) -> dict:
    db = _build_database(rng)
    shards = rng.choice([1, 2, 3, 4])
    partitioner = rng.choice(PARTITIONERS)()
    sharded = ShardedDatabase.from_database(db, shards, partitioner)
    sharded.verify_fragments()
    assert sharded == db  # coalesced view is content-identical

    gen = _QueryGen(rng, db.schema())
    query = gen.query(rng.randint(1, 3))
    executor = rng.choice(["serial", "thread"])
    label_base = f"case {case} (seed {SEED}, shards {shards}, {partitioner.name})"

    results: dict = {}
    modes: dict = {}
    for strategy in available_strategies():
        label = f"{label_base}, strategy {strategy}"
        try:
            mono = engine.evaluate(query, db, strategy=strategy, use_cache=False)
        except (StrategyNotApplicableError, EngineError, ValueError, TypeError) as exc:
            try:
                engine.evaluate(
                    query, sharded, strategy=strategy, use_cache=False,
                    executor=executor,
                )
            except type(exc):
                continue
            raise AssertionError(
                f"{label}: monolithic raised {type(exc).__name__} but the "
                "sharded evaluation did not"
            )
        shard = engine.evaluate(
            query, sharded, strategy=strategy, use_cache=False, executor=executor
        )
        _assert_identical(mono, shard, label)
        results[strategy] = (mono, shard)
        modes[strategy] = shard.metadata["sharding"]["mode"]

    # Bag semantics exercises its own lineage rules (no ∩ on the
    # lineage, bag-additive merge) — check multiplicities too.
    label = f"{label_base}, strategy naive (bag)"
    try:
        mono = engine.evaluate(
            query, db, strategy="naive", semantics="bag", use_cache=False
        )
    except (StrategyNotApplicableError, EngineError, ValueError, TypeError) as exc:
        try:
            engine.evaluate(
                query, sharded, strategy="naive", semantics="bag",
                use_cache=False, executor=executor,
            )
        except type(exc):
            mono = None
        else:
            raise AssertionError(f"{label}: only monolithic raised")
    if mono is not None:
        shard = engine.evaluate(
            query, sharded, strategy="naive", semantics="bag",
            use_cache=False, executor=executor,
        )
        _assert_identical(mono, shard, label)
        modes["naive-bag"] = shard.metadata["sharding"]["mode"]

    _assert_soundness_chain(results, query, label_base)
    return modes


def _assert_soundness_chain(results: dict, query, label: str) -> None:
    """Q+ ⊆ cert⊥ ⊆ naive (and Qt ⊆ cert⊥, ctables ⊆ cert⊥, cert⊥ ⊆ Q?),
    for the monolithic *and* the sharded results."""
    if "exact-certain" not in results:
        return
    for which in (0, 1):  # 0 = monolithic, 1 = sharded
        cert = results["exact-certain"][which].relation.rows_set()
        if "approx-guagliardo16" in results:
            guag = results["approx-guagliardo16"][which]
            assert guag.certain.rows_set() <= cert, f"{label}: Q+ ⊄ cert"
            assert cert <= guag.possible.rows_set(), f"{label}: cert ⊄ Q?"
        if "approx-libkin16" in results:
            qt = results["approx-libkin16"][which].certain.rows_set()
            assert qt <= cert, f"{label}: Qt ⊄ cert"
        if "ctables" in results:
            ct = results["ctables"][which].certain.rows_set()
            assert ct <= cert, f"{label}: ctables certain ⊄ cert"
        if "naive" in results:
            naive = results["naive"][which].relation.rows_set()
            assert cert <= naive, f"{label}: cert ⊄ naive"


def test_sharded_equals_monolithic_randomized():
    engine = Engine()
    distributed = 0
    coalesced = 0
    for case in range(CASES):
        rng = random.Random(SEED * 1_000_003 + case)
        modes = _run_case(engine, rng, case)
        for mode in modes.values():
            if mode == "distributed":
                distributed += 1
            else:
                coalesced += 1
    # The generator must exercise both paths heavily, otherwise the
    # harness silently stops guarding the interesting code.
    assert distributed >= CASES // 4, (distributed, coalesced)
    assert coalesced >= CASES // 4, (distributed, coalesced)


def test_sharded_equals_monolithic_process_executor():
    """A few cases through the process pool (expensive; kept small).

    One strategy per shard merge, so both merges consume outcomes that
    crossed a real process boundary.
    """
    with Engine() as engine:
        for case in range(3):
            rng = random.Random(SEED * 7_919 + case)
            db = _build_database(rng)
            sharded = ShardedDatabase.from_database(db, 3, HashPartitioner())
            query = rb.select(
                rb.product(
                    rb.relation("R"),
                    rb.rename(rb.relation("S"), {"c": "c2", "d": "d2"}),
                ),
                Eq(Attr("a"), Attr("c2")),
            )
            for strategy in ("naive", "approx-guagliardo16"):
                label = f"process case {case} ({strategy})"
                mono = engine.evaluate(query, db, strategy=strategy, use_cache=False)
                shard = engine.evaluate(
                    query, sharded, strategy=strategy, use_cache=False, executor="process"
                )
                assert shard.metadata["sharding"]["mode"] == "distributed", label
                assert shard.metadata["sharding"]["executor"] == "process", label
                _assert_identical(mono, shard, label)


def test_natural_join_and_semijoin_distribute_on_the_left():
    """NaturalJoin/SemiJoin are on the naïve lineage allowlist; pin the
    rewrite with shared-attribute schemas the random generator avoids."""
    db = Database(
        {
            "R": Relation(("a", "b"), [(i, f"v{i % 3}") for i in range(7)]),
            "S": Relation(("b", "c"), [(f"v{i}", 10 + i) for i in range(3)]),
        }
    )
    sharded = ShardedDatabase.from_database(db, 3, HashPartitioner())
    engine = Engine()
    for query in (
        rb.natural_join(rb.relation("R"), rb.relation("S")),
        rb.semijoin(rb.relation("R"), rb.relation("S")),
        rb.project(rb.natural_join(rb.relation("R"), rb.relation("S")), ["a", "c"]),
    ):
        for semantics in ("set", "bag"):
            mono = engine.evaluate(
                query, db, strategy="naive", semantics=semantics, use_cache=False
            )
            shard = engine.evaluate(
                query, sharded, strategy="naive", semantics=semantics,
                use_cache=False,
            )
            assert shard.metadata["sharding"]["mode"] == "distributed"
            assert shard.metadata["sharding"]["sharded_relations"] == ["R"]
            assert shard.metadata["sharding"]["broadcast_relations"] == ["S"]
            _assert_identical(mono, shard, f"{type(query).__name__} ({semantics})")


def test_sql_frontend_equivalence_under_sharding():
    """SQL strings (compilable fragment) through sharded evaluation."""
    from repro.workloads import figure1_database_with_null

    db = figure1_database_with_null()
    sharded = ShardedDatabase.from_database(db, 2, RoundRobinPartitioner())
    engine = Engine()
    sql = "SELECT cid FROM Payments WHERE oid = 'o1'"
    for strategy in ("sql-3vl", "naive", "approx-guagliardo16"):
        mono = engine.evaluate(sql, db, strategy=strategy, use_cache=False)
        shard = engine.evaluate(sql, sharded, strategy=strategy, use_cache=False)
        _assert_identical(mono, shard, f"sql via {strategy}")
    # the algebra-executing strategies distribute the compiled plan
    assert (
        engine.evaluate(sql, sharded, strategy="naive", use_cache=False)
        .metadata["sharding"]["mode"]
        == "distributed"
    )
