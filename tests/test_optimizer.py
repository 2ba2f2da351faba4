"""Unit tests for the plan optimizer and its physical operators.

The randomized end-to-end guarantees live in
``tests/test_differential.py``; this file pins the individual
rewrite rules, the per-condition-mode soundness gating, the physical
evaluator nodes (hash equi-join, constrained domain enumeration), the
``Dom^k`` size guard, and the satellite fast paths on ``Relation``.
"""

from __future__ import annotations

import pytest

from repro import Database, Engine, Null, Relation
from repro.algebra import (
    ConstrainedDomainRelation,
    DOMAIN_ENUMERATION_LIMIT,
    EquiJoin,
    OPTIMIZER_RULES,
    builder as rb,
    optimize_plan,
    walk,
)
from repro.algebra import ast as ra
from repro.algebra.conditions import And, Attr, Eq, IsConst, Literal, Neq
from repro.algebra.evaluator import Evaluator
from repro.algebra.optimize import rename_condition, split_conjuncts
from repro.engine import EngineError


@pytest.fixture
def db():
    return Database(
        {
            "R": Relation(("a", "b"), [(1, "x"), (2, "y"), (Null("n1"), "z")]),
            "S": Relation(("c", "d"), [(1, "p"), (3, "q"), (Null("n1"), "r")]),
        }
    )


# ----------------------------------------------------------------------
# Rule table hygiene
# ----------------------------------------------------------------------
def test_every_rule_declares_modes_and_phase():
    assert OPTIMIZER_RULES
    for rule in OPTIMIZER_RULES:
        assert rule.modes <= {"naive", "3vl"} and rule.modes, rule.name
        assert rule.phase in ("logical", "physical"), rule.name
        assert rule.description


def test_exactly_the_null_sensitive_rule_is_naive_only():
    naive_only = {r.name for r in OPTIMIZER_RULES if r.modes == {"naive"}}
    assert naive_only == {"trivial-self-equality"}


# ----------------------------------------------------------------------
# Logical rewrites
# ----------------------------------------------------------------------
def test_selection_over_product_becomes_equijoin(db):
    query = rb.select(
        rb.product(rb.relation("R"), rb.relation("S")),
        And(Eq(Attr("a"), Attr("c")), Neq(Attr("b"), Literal("y"))),
    )
    optimized = optimize_plan(query, db.schema())
    joins = [node for node in walk(optimized) if isinstance(node, EquiJoin)]
    assert len(joins) == 1
    assert joins[0].pairs == (("a", "c"),)
    # The per-side conjunct was pushed below the join, not left above it.
    assert not any(
        isinstance(node, ra.Product) for node in walk(optimized)
    ), "the cartesian product must be gone"


def test_equality_pairs_merge_across_stacked_selections(db):
    query = rb.select(
        rb.select(
            rb.product(rb.relation("R"), rb.relation("S")), Eq(Attr("a"), Attr("c"))
        ),
        Eq(Attr("b"), Attr("d")),
    )
    optimized = optimize_plan(query, db.schema())
    joins = [node for node in walk(optimized) if isinstance(node, EquiJoin)]
    assert len(joins) == 1
    assert set(joins[0].pairs) == {("a", "c"), ("b", "d")}


def test_selection_pushes_through_union_with_positional_renaming(db):
    # Right child uses different attribute names; the pushed condition
    # must be renamed positionally.
    query = rb.select(
        rb.union(rb.relation("R"), rb.relation("S")), Eq(Attr("a"), Literal(1))
    )
    optimized = optimize_plan(query, db.schema())
    union = next(node for node in walk(optimized) if isinstance(node, ra.Union))
    right = union.right
    assert isinstance(right, ra.Selection)
    assert right.condition == Eq(Attr("c"), Literal(1))
    for mode in ("naive", "3vl"):
        plain = Evaluator(condition_mode=mode).evaluate(query, db)
        fast = Evaluator(condition_mode=mode, optimize=True).evaluate(query, db)
        assert plain == fast


def test_projection_prunes_product_columns(db):
    query = rb.project(rb.product(rb.relation("R"), rb.relation("S")), ["a", "d"])
    optimized = optimize_plan(query, db.schema())
    product = next(node for node in walk(optimized) if isinstance(node, ra.Product))
    assert isinstance(product.left, ra.Projection)
    assert product.left.attributes == ("a",)
    assert isinstance(product.right, ra.Projection)
    assert product.right.attributes == ("d",)
    assert Evaluator().evaluate(query, db) == Evaluator(optimize=True).evaluate(
        query, db
    )


def test_self_equality_dropped_only_in_naive_mode(db):
    query = rb.select(rb.relation("R"), Eq(Attr("a"), Attr("a")))
    assert optimize_plan(query, db.schema(), condition_mode="naive") == rb.relation("R")
    still_selected = optimize_plan(query, db.schema(), condition_mode="3vl")
    assert any(isinstance(node, ra.Selection) for node in walk(still_selected))
    # And the 3VL semantics really differ: the null row must be filtered.
    kept = Evaluator(condition_mode="3vl", optimize=True).evaluate(query, db)
    assert kept.rows_set() == {(1, "x"), (2, "y")}


def test_selection_over_domain_is_constrained(db):
    query = rb.select(
        rb.dom(["_d1", "_d2"]),
        And(Eq(Attr("_d1"), Attr("_d2")), Eq(Attr("_d1"), Literal(1))),
    )
    optimized = optimize_plan(query, db.schema())
    assert isinstance(optimized, ConstrainedDomainRelation)
    assert optimized.groups == (("_d1", "_d2"),)
    assert optimized.bindings == (("_d1", 1),)
    for mode in ("naive", "3vl"):
        plain = Evaluator(condition_mode=mode).evaluate(query, db)
        fast = Evaluator(condition_mode=mode, optimize=True).evaluate(query, db)
        assert plain == fast


def test_malformed_plans_keep_raising_the_same_error(db):
    # Overlapping product attributes: the optimizer must not mask the error.
    bad = rb.select(
        rb.product(rb.relation("R"), rb.relation("R")), Eq(Attr("a"), Literal(1))
    )
    with pytest.raises(ValueError, match="overlapping"):
        Evaluator().evaluate(bad, db)
    with pytest.raises(ValueError, match="overlapping"):
        Evaluator(optimize=True).evaluate(bad, db)
    # A plan whose attribute computation fails outright is returned as-is.
    missing = rb.select(rb.relation("Nope"), Eq(Attr("a"), Literal(1)))
    assert optimize_plan(missing, db.schema()) == missing
    # Invalid attribute references must not be silently "repaired" by
    # pushing them below a rename (or collapsing a broken projection):
    # the optimized plan must raise the same KeyError as the original.
    stale_condition = rb.select(
        rb.rename(rb.relation("R"), {"a": "c"}), Eq(Attr("a"), Literal(1))
    )
    stale_projection = rb.project(rb.rename(rb.relation("R"), {"a": "c"}), ["a"])
    broken_inner = rb.project(rb.project(rb.relation("R"), ["a", "zzz"]), ["a"])
    for plan in (stale_condition, stale_projection, broken_inner):
        with pytest.raises(KeyError):
            Evaluator().evaluate(plan, db)
        with pytest.raises(KeyError):
            Evaluator(optimize=True).evaluate(plan, db)


def test_vacuous_rename_entries_do_not_break_pushdown(db):
    # Rename treats a mapping entry whose old name is absent from the
    # child as a no-op; the pushdown rules must not invert such entries
    # into references to nonexistent attributes.
    vacuous = rb.rename(rb.relation("R"), {"zz": "a"})  # no-op: R has no 'zz'
    for plan in (
        rb.select(vacuous, Eq(Attr("a"), Literal(1))),
        rb.project(vacuous, ["a"]),
        rb.select(rb.rename(rb.relation("R"), {"zz": "q", "a": "c"}), Eq("c", 1)),
    ):
        plain = Evaluator().evaluate(plan, db)
        fast = Evaluator(optimize=True).evaluate(plan, db)
        assert plain == fast, plan


def test_physical_false_restricts_to_logical_rules(db):
    query = rb.select(
        rb.product(rb.relation("R"), rb.relation("S")), Eq(Attr("a"), Attr("c"))
    )
    optimized = optimize_plan(query, db.schema(), physical=False)
    assert not any(isinstance(node, EquiJoin) for node in walk(optimized))
    assert any(isinstance(node, ra.Product) for node in walk(optimized))


def test_split_and_rename_condition_helpers():
    condition = And(Eq(Attr("a"), Literal(1)), And(IsConst("b"), Neq("a", "b")))
    parts = split_conjuncts(condition)
    assert len(parts) == 3
    renamed = rename_condition(condition, {"a": "x"})
    assert "x" in str(renamed) and "a" not in str(renamed).replace("x", "")


# ----------------------------------------------------------------------
# Physical operators
# ----------------------------------------------------------------------
def test_equijoin_matches_selected_product_in_both_modes(db):
    join = EquiJoin(rb.relation("R"), rb.relation("S"), [("a", "c")])
    reference = rb.select(
        rb.product(rb.relation("R"), rb.relation("S")), Eq(Attr("a"), Attr("c"))
    )
    for mode in ("naive", "3vl"):
        for bag in (False, True):
            evaluator = Evaluator(condition_mode=mode, bag=bag)
            assert evaluator.evaluate(join, db) == evaluator.evaluate(reference, db), (
                mode,
                bag,
            )


def test_equijoin_null_keys_join_naively_but_not_in_3vl(db):
    join = EquiJoin(rb.relation("R"), rb.relation("S"), [("a", "c")])
    naive_rows = Evaluator(condition_mode="naive").evaluate(join, db).rows_set()
    assert (Null("n1"), "z", Null("n1"), "r") in naive_rows
    tvl_rows = Evaluator(condition_mode="3vl").evaluate(join, db).rows_set()
    assert all(row[0] != Null("n1") for row in tvl_rows)


def test_equijoin_multiplicities_multiply():
    db = Database(
        {
            "A": Relation(("x",), multiplicities={(1,): 2, (2,): 1}),
            "B": Relation(("y",), multiplicities={(1,): 3}),
        }
    )
    join = EquiJoin(rb.relation("A"), rb.relation("B"), [("x", "y")])
    result = Evaluator(bag=True).evaluate(join, db)
    assert result.multiplicity((1, 1)) == 6
    assert len(result) == 1


def test_domain_enumeration_guard_raises_engine_error():
    rows = [(f"v{i}",) for i in range(40)]
    db = Database({"T": Relation(("e",), rows)})
    big = rb.dom(5)  # 40^5 > 2_000_000
    assert 40**5 > DOMAIN_ENUMERATION_LIMIT
    with pytest.raises(EngineError, match="Dom\\^5"):
        Evaluator().evaluate(big, db)
    # A selective condition pushed into the domain keeps it evaluable.
    constrained = rb.select(
        big, Eq(Attr(big.attributes[0]), Literal("v0"))
    )
    for i in range(1, 5):
        constrained = rb.select(
            constrained, Eq(Attr(big.attributes[i]), Literal("v1"))
        )
    result = Evaluator(optimize=True).evaluate(constrained, db)
    assert result.rows_set() == {("v0", "v1", "v1", "v1", "v1")}


def test_subplan_memoization_shares_identical_subtrees(db):
    calls = []

    class CountingEvaluator(Evaluator):
        def _eval_Product(self, query, database, schema):
            calls.append(query)
            return super()._eval_Product(query, database, schema)

    shared = rb.product(rb.relation("R"), rb.rename(rb.relation("S"), {"c": "c2", "d": "d2"}))
    query = rb.union(shared, shared)
    CountingEvaluator().evaluate(query, db)
    assert len(calls) == 1  # second occurrence served from the memo

    # Across evaluate() calls on the same database too (the Qt/Qf shape).
    evaluator = CountingEvaluator()
    evaluator.evaluate(shared, db)
    evaluator.evaluate(rb.project(shared, ["a"]), db)
    assert len(calls) == 2  # one per fresh evaluator, not per occurrence


# ----------------------------------------------------------------------
# Relation satellites
# ----------------------------------------------------------------------
def test_attribute_index_is_precomputed_and_keeps_keyerror():
    relation = Relation(("a", "b", "c"), [(1, 2, 3)])
    assert relation.attribute_index("c") == 2
    with pytest.raises(KeyError):
        relation.attribute_index("missing")


def test_distinct_is_a_noop_on_already_distinct_relations():
    relation = Relation(("a",), [(1,), (2,)])
    assert relation.distinct() is relation
    bag = Relation(("a",), multiplicities={(1,): 3})
    collapsed = bag.distinct()
    assert collapsed is not bag
    assert collapsed.multiplicity((1,)) == 1
    # The collapsed relation knows it is distinct: no second copy.
    assert collapsed.distinct() is collapsed


# ----------------------------------------------------------------------
# Engine plumbing
# ----------------------------------------------------------------------
def test_engine_cache_keys_include_the_optimize_setting(db):
    engine = Engine()
    query = rb.select(
        rb.product(rb.relation("R"), rb.relation("S")), Eq(Attr("a"), Attr("c"))
    )
    first = engine.evaluate(query, db, strategy="naive")
    assert not first.from_cache
    assert engine.evaluate(query, db, strategy="naive").from_cache
    unoptimized = engine.evaluate(query, db, strategy="naive", optimize=False)
    assert not unoptimized.from_cache  # different key, no aliasing
    assert unoptimized.relation == first.relation


def test_engine_optimize_default_can_be_disabled(db):
    engine = Engine(optimize=False)
    assert engine.default_optimize is False


def test_compare_accepts_per_strategy_optimize_override(db):
    engine = Engine()
    query = rb.select(
        rb.product(rb.relation("R"), rb.relation("S")), Eq(Attr("a"), Attr("c"))
    )
    results = engine.compare(
        query,
        db,
        strategies=("naive", "approx-guagliardo16"),
        options={"naive": {"optimize": False}},
        use_cache=False,
    )
    assert set(results) == {"naive", "approx-guagliardo16"}
    # And the async twin takes the same shape.
    import asyncio

    from repro import AsyncEngine

    async def go():
        async with AsyncEngine(engine=engine, pool="serial") as aengine:
            return await aengine.compare(
                query,
                db,
                strategies=("naive",),
                options={"naive": {"optimize": False}},
                use_cache=False,
            )

    async_results = asyncio.run(go())
    assert async_results["naive"].relation == results["naive"].relation


def test_physical_rules_are_mode_gated_through_the_table(db, monkeypatch):
    # The physical phase consults the same per-mode rule table as the
    # logical fixpoint: un-declaring a mode disables the transform.
    import repro.algebra.optimize as optmod

    gated = tuple(
        optmod.Rule(r.name, r.description, frozenset({"3vl"}), r.phase, r.fn)
        if r.name == "hash-equijoin"
        else r
        for r in optmod.OPTIMIZER_RULES
    )
    monkeypatch.setattr(optmod, "OPTIMIZER_RULES", gated)
    optmod.clear_optimize_memo()
    query = rb.select(
        rb.product(rb.relation("R"), rb.relation("S")), Eq(Attr("a"), Attr("c"))
    )
    naive_plan = optimize_plan(query, db.schema(), condition_mode="naive")
    assert not any(isinstance(node, EquiJoin) for node in walk(naive_plan))
    tvl_plan = optimize_plan(query, db.schema(), condition_mode="3vl")
    assert any(isinstance(node, EquiJoin) for node in walk(tvl_plan))
    optmod.clear_optimize_memo()


def test_unsupporting_strategies_do_not_receive_the_option(db):
    from repro.engine import (
        EvaluationStrategy,
        StrategyCapabilities,
        StrategyOutcome,
        get_strategy,
        register_strategy,
        unregister_strategy,
    )
    from repro.sql import run_sql

    @register_strategy("test-no-optimize")
    class _NoOptimize(EvaluationStrategy):
        capabilities = StrategyCapabilities(
            semantics=("set",), requires=("sql",), optimize=False
        )

        def run(self, query, database, *, semantics, **options):
            self.reject_unknown_options(options)
            return StrategyOutcome(answer=run_sql(database, query.sql_text))

    try:
        assert get_strategy("test-no-optimize").supports_optimize is False
        engine = Engine()
        # Must not raise "does not understand options ['optimize']".
        result = engine.evaluate(
            "SELECT a FROM R WHERE a = 1", db, strategy="test-no-optimize", optimize=True
        )
        assert result.relation.rows_set() == {(1,)}
    finally:
        unregister_strategy("test-no-optimize")
