"""The coalesced fallback: non-distributive operators on sharded data.

Difference, division and the anti-semijoins do not distribute over
horizontal fragments (a fragment cannot know which of its rows survive
subtraction of rows held elsewhere), and several strategies'
correctness arguments need the whole database.  In both situations the
engine must *coalesce*: evaluate monolithically on the union view —
silently correct, never silently wrong.

These are regression tests pinned to the paper's Figure 1 cases, whose
certain answers are established in Section 1 and asserted by the seed
integration tests; sharding must not move any of them.
"""

from __future__ import annotations

import pytest

from repro import Database, Engine, Relation, Session
from repro.algebra import builder as rb
from repro.sharding import (
    HashPartitioner,
    NonDistributableError,
    RoundRobinPartitioner,
    ShardedDatabase,
    shard_plan,
)
from repro.engine import get_strategy
from repro.workloads import (
    figure1_database_with_null,
    tautology_algebra,
    unpaid_orders_algebra,
)
from repro.workloads.figure1 import customers_without_paid_order_algebra


@pytest.fixture(params=[2, 3], ids=["2-shards", "3-shards"])
def figure1_sharded(request) -> ShardedDatabase:
    return ShardedDatabase.from_database(
        figure1_database_with_null(), request.param, RoundRobinPartitioner()
    )


ALGEBRA_STRATEGIES = ("naive", "exact-certain", "approx-libkin16",
                     "approx-guagliardo16", "ctables")

# The Figure 2a translation materialises Dom^k for the arity-5 join of
# the customers query (the E5 blow-up, ~20 s) — skip that combination.
CHEAP_STRATEGIES = tuple(s for s in ALGEBRA_STRATEGIES if s != "approx-libkin16")

# The shard-lineage allowlists the strategies declare in their capabilities.
NAIVE_LINEAGE_OPS = get_strategy("naive").capabilities.ops_for("set")
TRANSLATION_LINEAGE_OPS = get_strategy("approx-guagliardo16").capabilities.ops_for("set")


class TestPlannerRejections:
    def test_difference_is_non_distributive(self):
        with pytest.raises(NonDistributableError, match="Difference"):
            shard_plan(unpaid_orders_algebra(), NAIVE_LINEAGE_OPS)

    def test_division_is_non_distributive(self):
        query = rb.division(rb.relation("R"), rb.relation("S"))
        with pytest.raises(NonDistributableError, match="Division"):
            shard_plan(query, NAIVE_LINEAGE_OPS)

    def test_intersection_allowed_for_naive_but_not_translations(self):
        query = rb.intersection(rb.relation("R"), rb.relation("S"))
        plan = shard_plan(query, NAIVE_LINEAGE_OPS)
        # only the left side is partitioned; the right is broadcast
        assert plan.sharded_relations == ("R",)
        assert plan.broadcast_relations == ("S",)
        with pytest.raises(NonDistributableError, match="Intersection"):
            shard_plan(query, TRANSLATION_LINEAGE_OPS)

    def test_domain_relation_cannot_be_partitioned(self):
        with pytest.raises(NonDistributableError, match="Dom"):
            shard_plan(rb.dom(2), NAIVE_LINEAGE_OPS)

    def test_difference_in_broadcast_position_is_fine(self):
        """q_nonlocal-shaped plans distribute: the − sits off-lineage."""
        right = rb.rename(
            rb.difference(
                rb.project(rb.relation("S"), ["c"]),
                rb.project(rb.relation("T"), ["c"]),
            ),
            {"c": "c2"},
        )
        plan = shard_plan(rb.product(rb.relation("R"), right), NAIVE_LINEAGE_OPS)
        assert plan.sharded_relations == ("R",)
        assert set(plan.broadcast_relations) == {"S", "T"}


class TestFigure1UnderSharding:
    """Section 1's certain answers, evaluated on sharded data."""

    def test_unpaid_orders_certain_answers_stay_empty(self, figure1_sharded):
        engine = Engine()
        query = unpaid_orders_algebra()
        for strategy in ("exact-certain", "approx-guagliardo16", "approx-libkin16"):
            result = engine.evaluate(query, figure1_sharded, strategy=strategy)
            assert result.metadata["sharding"]["mode"] == "coalesced"
            assert result.certain.rows_set() == set(), strategy

    def test_unpaid_orders_naive_coalesces_to_monolithic(self, figure1_sharded):
        engine = Engine()
        query = unpaid_orders_algebra()
        result = engine.evaluate(query, figure1_sharded, strategy="naive")
        assert result.metadata["sharding"]["mode"] == "coalesced"
        assert result.relation.rows_set() == {("o2",), ("o3",)}

    def test_customers_without_paid_order_never_reports_c2(self, figure1_sharded):
        engine = Engine()
        query = customers_without_paid_order_algebra()
        for strategy in CHEAP_STRATEGIES:
            result = engine.evaluate(query, figure1_sharded, strategy=strategy)
            assert ("c2",) not in result.certain_rows(), strategy

    def test_tautology_distributes_and_keeps_certainty_gap(self, figure1_sharded):
        """σ with a negated condition on the lineage *does* distribute,
        and the Q+ ⊂ cert gap of Section 1 is preserved."""
        engine = Engine()
        query = tautology_algebra()
        plus = engine.evaluate(query, figure1_sharded, strategy="approx-guagliardo16")
        assert plus.metadata["sharding"]["mode"] == "distributed"
        assert plus.certain.rows_set() == {("c1",)}
        assert plus.possible.rows_set() == {("c1",), ("c2",)}
        cert = engine.evaluate(query, figure1_sharded, strategy="exact-certain")
        assert cert.metadata["sharding"]["mode"] == "coalesced"
        assert cert.relation.rows_set() == {("c1",), ("c2",)}

    def test_every_strategy_matches_monolithic_on_figure1(self, figure1_sharded):
        engine = Engine()
        plain = figure1_database_with_null()
        for query, strategies in (
            (unpaid_orders_algebra(), ALGEBRA_STRATEGIES),
            (customers_without_paid_order_algebra(), CHEAP_STRATEGIES),
            (tautology_algebra(), ALGEBRA_STRATEGIES),
        ):
            for strategy in strategies:
                mono = engine.evaluate(query, plain, strategy=strategy, use_cache=False)
                shard = engine.evaluate(
                    query, figure1_sharded, strategy=strategy, use_cache=False
                )
                assert mono.relation.rows_set() == shard.relation.rows_set()
                assert mono.certain_rows() == shard.certain_rows()
                assert mono.possible_rows() == shard.possible_rows()


class TestDivisionUnderSharding:
    def test_division_coalesces_and_stays_correct(self):
        db = Database(
            {
                "R": Relation(("a", "b"), [(1, "x"), (1, "y"), (2, "x")]),
                "S": Relation(("b",), [("x",), ("y",)]),
            }
        )
        sharded = ShardedDatabase.from_database(db, 2, HashPartitioner())
        query = rb.division(rb.relation("R"), rb.relation("S"))
        session = Session(sharded)
        naive = session.evaluate(query, strategy="naive")
        assert naive.metadata["sharding"]["mode"] == "coalesced"
        assert naive.relation.rows_set() == {(1,)}
        # complete database: naïve division is exact, certain answers agree
        cert = session.evaluate(query, strategy="exact-certain")
        assert cert.relation.rows_set() == {(1,)}
