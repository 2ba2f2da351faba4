"""Shard-vs-monolith pins the random sweep does not reach.

The randomized shard-vs-monolith identity (every strategy, 1–4 shards,
both partitioners, serial and thread executors, crossed with every
other engine knob) lives in ``tests/test_differential.py``.  These pins
cover what that sweep does not: a real process pool, the NaturalJoin /
SemiJoin distribution with shared-attribute schemas, and the SQL
frontend.  ``test_sharded_equals_monolithic_randomized`` runs the
sweep's shard axes alone.
"""

from __future__ import annotations

import random

import pytest

from differential import SEED, _assert_identical, _build_database
from repro import Database, Engine, Relation
from repro.algebra import builder as rb
from repro.algebra.conditions import Attr, Eq
from repro.datamodel.values import Null
from repro.sharding import HashPartitioner, RoundRobinPartitioner, ShardedDatabase
from test_differential import AXES, slice_rows, sweep


def test_sharded_equals_monolithic_process_executor():
    """A few cases through the process pool (expensive; kept small).

    Both shard-aware strategies, so both ``finish`` methods consume
    unioned outcomes that crossed a real process boundary.
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


@pytest.mark.parametrize("null_in", ["read relation", "unread relation"])
@pytest.mark.parametrize("strategy", ["naive", "approx-guagliardo16"])
def test_merge_finishes_on_the_coalesced_database(strategy, null_in):
    """A non-UCQ plan (a difference, broadcast) distributed over two
    shards where only one shard holds a null: the exactness claim and
    the annotations come from the coalesced database, never from a
    shard's own completeness (shard 0 is complete on its own, and with
    the null in a relation the plan does not read, so is every shard
    task's database)."""
    null = Null("x")
    db = Database(
        {
            "R": Relation(("a",), [(0,), (null if null_in == "read relation" else 1,)]),
            "S": Relation(("b",), [(1,), (2,)]),
            "T": Relation(("b",), [(2,)]),
            "U": Relation(("u",), [(5,), (null if null_in == "unread relation" else 6,)]),
        }
    )
    sharded = ShardedDatabase.from_database(db, 2, RoundRobinPartitioner())
    assert [sharded.fragment("R", i).is_complete() for i in range(2)] == [
        True,
        null_in != "read relation",
    ]
    query = rb.product(rb.relation("R"), rb.difference(rb.relation("S"), rb.relation("T")))
    engine = Engine()
    mono = engine.evaluate(query, db, strategy=strategy, use_cache=False)
    shard = engine.evaluate(query, sharded, strategy=strategy, use_cache=False)
    assert shard.metadata["sharding"]["mode"] == "distributed"
    assert shard.metadata.get("exact") == mono.metadata.get("exact")
    if strategy == "naive":
        assert mono.metadata["exact"] is False and mono.certain is None
    _assert_identical(mono, shard, f"{strategy}, null in a {null_in}")


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


def test_sharded_equals_monolithic_randomized():
    """The shard axes alone: 1–4 shards, both partitioners, both
    executors, every strategy, against the monolithic database."""
    sweep(slice_rows(shards=(1, 2, 3, 4), partitioner=AXES["partitioner"],
                     executor=AXES["executor"]))
