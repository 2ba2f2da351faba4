"""The ``strategy="auto"`` planner and the capability contract.

Two layers of guarantees (the randomized auto-vs-explicit identity and
its exactness audit live on the ``strategy`` axis of
``tests/test_differential.py``, and on its own in
``test_auto_equals_reported_strategy_randomized``):

1. **Pins** — the Theorem 4.4 fragments (CQ/UCQ/Pos∀G, on the calculus,
   algebra *and* SQL frontends) select naïve evaluation; anything with
   negation does not.
2. **Contract** — the back-compat shim for legacy strategy classes, the
   capability introspection surface (``available_strategies(verbose=True)``,
   ``Engine.describe()``), and cache-key sharing between auto and
   explicit calls.
"""

from __future__ import annotations

import warnings

import pytest

from repro import Database, Engine, Null, Relation, Session, available_strategies
from repro.algebra import builder as rb
from repro.algebra.conditions import Attr, Eq, IsNull, Literal, Neq, Or
from repro.algebra.fragments import classify_plan
from repro.calculus import ast as fo
from repro.calculus.evaluation import FoQuery
from repro.engine import (
    EngineError,
    EvaluationStrategy,
    StrategyCapabilities,
    StrategyNotApplicableError,
    StrategyOutcome,
    choose_strategy,
    get_strategy,
    normalize_query,
    register_strategy,
    strategy_capabilities,
    unregister_strategy,
)
from repro.engine.capabilities import EXACT_FRAGMENTS_CWA
from test_differential import slice_rows, sweep


@pytest.fixture
def db() -> Database:
    return Database.from_dict(
        {
            "R": (("a", "b"), [(1, 2), (Null("x"), 3)]),
            "S": (("c",), [(2,), (3,)]),
        }
    )


def _plan(result) -> dict:
    plan = result.metadata.get("plan")
    assert plan is not None, "auto evaluation must record metadata['plan']"
    return plan


# ----------------------------------------------------------------------
# Fragment pins: Theorem 4.4 inputs select naïve
# ----------------------------------------------------------------------
class TestFragmentPins:
    def _auto(self, engine, query, db, **kwargs):
        return engine.evaluate(query, db, strategy="auto", use_cache=False, **kwargs)

    def test_cq_calculus_selects_naive(self, db):
        formula = fo.Exists(
            ["y"], fo.RelAtom("R", [fo.Var("x"), fo.Var("y")])
        )
        result = self._auto(Engine(), FoQuery(formula, free=("x",)), db)
        plan = _plan(result)
        assert plan["strategy"] == "naive"
        assert plan["fragment"] == "CQ"
        assert plan["guarantee"] == "exact"

    def test_ucq_calculus_selects_naive(self, db):
        formula = fo.Or(
            fo.Exists(["y"], fo.RelAtom("R", [fo.Var("x"), fo.Var("y")])),
            fo.RelAtom("S", [fo.Var("x")]),
        )
        plan = _plan(self._auto(Engine(), FoQuery(formula, free=("x",)), db))
        assert plan["strategy"] == "naive"
        assert plan["fragment"] == "UCQ"

    def test_pos_forall_g_calculus_selects_naive(self, db):
        # ∀c (S(c) → ∃a R(a, c)): guarded universal quantification.
        formula = fo.Forall(
            ["c"],
            fo.Implies(
                fo.RelAtom("S", [fo.Var("c")]),
                fo.Exists(["a"], fo.RelAtom("R", [fo.Var("a"), fo.Var("c")])),
            ),
        )
        plan = _plan(self._auto(Engine(), FoQuery(formula, free=()), db))
        assert plan["strategy"] == "naive"
        assert plan["fragment"] == "Pos∀G"

    def test_negated_calculus_does_not_select_naive(self, db):
        formula = fo.Exists(
            ["y"],
            fo.And(
                fo.RelAtom("R", [fo.Var("x"), fo.Var("y")]),
                fo.Not(fo.RelAtom("S", [fo.Var("y")])),
            ),
        )
        plan = _plan(self._auto(Engine(), FoQuery(formula, free=("x",)), db))
        assert plan["strategy"] != "naive"
        # No algebra plan for Figure 2b; the database is tiny, so the
        # planner affords the exact enumeration.
        assert plan["strategy"] == "exact-certain"
        assert plan["guarantee"] == "exact"

    def test_spju_algebra_selects_naive(self, db):
        query = rb.project(
            rb.select(rb.relation("R"), Eq(Attr("b"), Literal(3))), ["a"]
        )
        plan = _plan(self._auto(Engine(), query, db))
        assert plan["strategy"] == "naive"
        assert plan["fragment"] == "CQ"

    def test_negation_bearing_algebra_selects_sound_approximation(self, db):
        query = rb.difference(rb.project(rb.relation("R"), ["b"]), rb.relation("S"))
        plan = _plan(self._auto(Engine(), query, db))
        assert plan["strategy"] == "approx-guagliardo16"
        assert plan["guarantee"] == "sound"
        assert plan["fragment"] == "FO"

    def test_compiled_sql_cq_selects_naive(self, db):
        plan = _plan(self._auto(Engine(), "SELECT a FROM R WHERE b = 3", db))
        assert plan["strategy"] == "naive"
        assert plan["fragment"] == "CQ"

    def test_bag_semantics_falls_back_to_naive_without_guarantee(self, db):
        query = rb.difference(rb.project(rb.relation("R"), ["b"]), rb.relation("S"))
        plan = _plan(self._auto(Engine(), query, db, semantics="bag"))
        assert plan["strategy"] == "naive"
        assert plan["guarantee"] == "none"

    def test_complete_database_selects_naive_even_outside_fragments(self):
        complete = Database.from_dict(
            {"R": (("a", "b"), [(1, 2)]), "S": (("c",), [(2,)])}
        )
        query = rb.difference(rb.project(rb.relation("R"), ["b"]), rb.relation("S"))
        plan = _plan(self._auto(Engine(), query, complete))
        assert plan["strategy"] == "naive"
        assert plan["guarantee"] == "exact"

    def test_exact_budget_zero_pushes_calculus_negation_to_best_effort(self, db):
        formula = fo.Not(fo.RelAtom("S", [fo.Var("x")]))
        engine = Engine(auto_exact_budget=0)
        plan = _plan(self._auto(engine, FoQuery(formula, free=("x",)), db))
        assert plan["strategy"] != "exact-certain"
        assert plan["guarantee"] == "none"
        assert any("budget" in why for _, why in [tuple(c) for c in plan["considered"]])

    def test_exact_budget_counts_the_valuations_exact_certain_enumerates(self):
        """Three nulls over two known constants: (2 + 3 + 1)**3 = 216 by
        the active-domain estimate, but with the fresh constants taken
        in first-use order exact-certain checks 8 + 12 + 12 + 5 = 37."""
        nulls = [Null(f"p{i}") for i in range(3)]
        database = Database(
            {
                "R": Relation(("a",), [("k1",), ("k2",)]),
                "S": Relation(("a",), [(n,) for n in nulls]),
            }
        )
        query = FoQuery(fo.Not(fo.RelAtom("S", [fo.Var("x")])), free=("x",))
        plan = _plan(self._auto(Engine(auto_exact_budget=100), query, database))
        assert plan["strategy"] == "exact-certain"
        assert plan["estimates"]["exact-certain-valuations"] == 37

    def test_decision_records_considered_candidates(self, db):
        formula = fo.Not(fo.RelAtom("S", [fo.Var("x")]))
        plan = _plan(self._auto(Engine(), FoQuery(formula, free=("x",)), db))
        rejected = {name for name, _ in (tuple(c) for c in plan["considered"])}
        assert "approx-guagliardo16" in rejected  # needs an algebra plan


# ----------------------------------------------------------------------
# The algebra fragment classifier
# ----------------------------------------------------------------------
class TestClassifyPlan:
    def test_levels(self):
        r = rb.relation("R")
        assert classify_plan(r) == "CQ"
        assert classify_plan(rb.select(r, Eq(Attr("a"), Attr("b")))) == "CQ"
        assert (
            classify_plan(
                rb.select(r, Or(Eq(Attr("a"), Literal(1)), Eq(Attr("b"), Literal(2))))
            )
            == "UCQ"
        )
        assert classify_plan(rb.union(r, rb.relation("R"))) == "UCQ"
        assert classify_plan(rb.select(r, Neq(Attr("a"), Attr("b")))) == "FO"
        assert classify_plan(rb.select(r, IsNull(Attr("a")))) == "FO"
        assert classify_plan(rb.difference(r, rb.relation("R"))) == "FO"

    def test_division_by_base_relation_is_guarded(self):
        dividend = rb.relation("R")
        assert classify_plan(rb.division(dividend, rb.relation("T"))) == "Pos∀G"
        renamed = rb.rename(rb.relation("T"), {"e": "b"})
        assert classify_plan(rb.division(dividend, renamed)) == "Pos∀G"
        # A projected divisor is an ∃-quantified guard — not atomic.
        projected = rb.project(rb.relation("R"), ["b"])
        assert classify_plan(rb.division(dividend, projected)) == "FO"

    def test_matches_normalized_query_fragment(self, db):
        query = rb.select(rb.relation("R"), Eq(Attr("b"), Literal(3)))
        normalized = normalize_query(query, db.schema())
        assert normalized.fragment == classify_plan(query) == "CQ"

    def test_null_literal_equality_is_not_conjunctive(self):
        # σ_{a=⊥}(R) matches the null by *label* under naïve evaluation,
        # while no valuation-quantified semantics does — claiming
        # Theorem 4.4 exactness there would be unsound (regression:
        # naive used to return CERTAIN rows that exact-certain refutes).
        query = rb.select(rb.relation("R"), Eq(Attr("a"), Literal(Null("1"))))
        assert classify_plan(query) == "FO"
        db = Database.from_dict({"R": (("a", "b"), [("x", Null("1"))])})
        bynull = rb.select(rb.relation("R"), Eq(Attr("b"), Literal(Null("1"))))
        engine = Engine()
        naive = engine.evaluate(bynull, db, strategy="naive", use_cache=False)
        cert = engine.evaluate(bynull, db, strategy="exact-certain", use_cache=False)
        assert naive.metadata["exact"] is False
        assert naive.certain is None
        assert cert.relation.rows_set() == frozenset()

    def test_constant_relation_with_null_is_not_conjunctive(self):
        from repro.algebra import ast as ra

        table = ra.ConstantRelation(("a",), [(Null("n"),)])
        assert classify_plan(table) == "FO"


# ----------------------------------------------------------------------
# Cache sharing between auto and explicit calls
# ----------------------------------------------------------------------
def test_auto_shares_cache_entries_with_explicit_calls(db):
    engine = Engine()
    query = rb.select(rb.relation("R"), Eq(Attr("b"), Literal(3)))
    explicit = engine.evaluate(query, db, strategy="naive")
    assert not explicit.from_cache
    auto = engine.evaluate(query, db, strategy="auto")
    assert auto.from_cache, "auto must hit the entry the explicit call stored"
    assert _plan(auto)["strategy"] == "naive"
    assert "plan" not in explicit.metadata


# ----------------------------------------------------------------------
# Contract: shim, introspection, errors
# ----------------------------------------------------------------------
class TestCapabilityContract:
    def test_capability_less_class_is_rejected_at_registration(self):
        # The PR 5 shim that synthesized a record from plain
        # supported_semantics/supports_optimize attributes is gone:
        # registration without a StrategyCapabilities record is an error,
        # and the class never lands in the registry.
        with pytest.raises(EngineError, match="declares no"):

            @register_strategy("test-legacy")
            class _Legacy(EvaluationStrategy):
                supported_semantics = ("set", "bag")
                supports_optimize = True

                def run(self, query, database, *, semantics, **options):
                    options.pop("optimize", None)
                    return StrategyOutcome(answer=Relation(("a",), [(1,)]))

        assert "test-legacy" not in available_strategies()

    def test_capability_record_drives_property_views(self, db):
        @register_strategy("test-views")
        class _Views(EvaluationStrategy):
            capabilities = StrategyCapabilities(
                semantics=("set", "bag"), requires=("algebra",), optimize=True
            )

            def run(self, query, database, *, semantics, **options):
                options.pop("optimize", None)
                return StrategyOutcome(answer=Relation(("a",), [(1,)]))

        try:
            caps = strategy_capabilities("test-views")
            assert caps.semantics == ("set", "bag")
            assert caps.optimize is True
            assert caps.backends == ("interpreter",)
            strat = get_strategy("test-views")
            assert strat.supported_semantics == ("set", "bag")
            assert strat.supports_optimize is True
            assert strat.supported_backends == ("interpreter",)
            result = Engine().evaluate(
                rb.relation("R"), db, strategy="test-views", use_cache=False
            )
            assert result.sorted_rows() == [(1,)]
        finally:
            unregister_strategy("test-views")

    def test_capability_declaring_class_registers_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)

            @register_strategy("test-modern")
            class _Modern(EvaluationStrategy):
                capabilities = StrategyCapabilities(
                    semantics=("set",), requires=("algebra",)
                )

                def run(self, query, database, *, semantics, **options):
                    return StrategyOutcome(answer=Relation(("a",), ()))

        unregister_strategy("test-modern")

    def test_verbose_table_and_describe(self):
        table = available_strategies(verbose=True)
        assert set(table) == set(available_strategies())
        assert table["naive"].exact_on == EXACT_FRAGMENTS_CWA
        assert table["exact-certain"].exact_everywhere
        assert table["approx-guagliardo16"].sound
        assert not table["sql-3vl"].sound
        assert "Selection" in table["naive"].shardable_ops
        assert "Intersection" not in table["naive"].ops_for("bag")

        description = Engine().describe()
        assert set(description["strategies"]) == set(available_strategies())
        naive = description["strategies"]["naive"]
        assert naive["exact_on"] == sorted(EXACT_FRAGMENTS_CWA)
        assert naive["cost"] == "polynomial"
        assert naive["backends"] == ["interpreter", "sqlite"]
        assert description["strategies"]["exact-certain"]["backends"] == ["interpreter"]
        assert description["cache"]["backend"] == "MemoryCacheBackend"
        assert description["defaults"]["backend"] == "auto"
        assert description["defaults"]["auto_exact_budget"] > 0

    def test_legacy_supported_semantics_still_gates_evaluation(self, db):
        # The engine reads semantics through the capability record; the
        # legacy property view must agree.
        assert get_strategy("exact-certain").supported_semantics == ("set",)
        with pytest.raises(StrategyNotApplicableError):
            Engine().evaluate(
                rb.relation("R"), db, strategy="exact-certain", semantics="bag"
            )

    def test_choose_strategy_rejects_hopeless_queries(self, db):
        # An SQL query that does not compile to algebra offers only the
        # "sql" form; with bag semantics only sql-3vl can take it.
        normalized = normalize_query("SELECT a FROM R WHERE b = 3", None)
        decision = choose_strategy(normalized, db, semantics="bag")
        assert decision.strategy == "sql-3vl"

    def test_auto_is_reserved_and_planned_per_call(self, db):
        session = Session(db)
        result = session.auto(rb.relation("R"), use_cache=False)
        assert _plan(result)["strategy"] == "naive"
        assert session.describe()["strategies"]

    def test_auto_skips_translations_on_plans_outside_their_operators(self, db):
        # Division (and the join conveniences) raise inside the Figure 2
        # translations; the planner must respect plan_ops and fall
        # through to a strategy that can evaluate the plan (regression:
        # auto used to crash with a raw ValueError here).
        divided = rb.division(
            rb.relation("R"), rb.rename(rb.relation("S"), {"c": "b"})
        )
        query = rb.difference(divided, rb.project(rb.relation("R"), ["a"]))
        assert classify_plan(query) == "FO"
        result = Engine().evaluate(query, db, strategy="auto", use_cache=False)
        plan = _plan(result)
        assert plan["strategy"] not in ("approx-guagliardo16", "approx-libkin16")
        rejected = dict(tuple(c) for c in plan["considered"])
        assert "unsupported operators" in rejected["approx-guagliardo16"]

    def test_exact_budget_env_var_is_read_at_call_time(self, db, monkeypatch):
        formula = fo.Not(fo.RelAtom("S", [fo.Var("x")]))
        query = FoQuery(formula, free=("x",))
        monkeypatch.setenv("REPRO_AUTO_EXACT_BUDGET", "0")
        plan = _plan(Engine().evaluate(query, db, strategy="auto", use_cache=False))
        assert plan["strategy"] != "exact-certain"
        monkeypatch.setenv("REPRO_AUTO_EXACT_BUDGET", "1000000")
        plan = _plan(Engine().evaluate(query, db, strategy="auto", use_cache=False))
        assert plan["strategy"] == "exact-certain"


def test_auto_equals_reported_strategy_randomized():
    """The strategy axis alone: ``auto`` answers as the strategy it
    reports, and a naïve choice claiming exactness equals cert⊥."""
    sweep(slice_rows(strategy=("auto",), semantics=("set", "bag"), shards=(0, 2)))
