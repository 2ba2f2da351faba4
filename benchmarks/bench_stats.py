"""E18 — Statistics-driven planning: plan by estimate, not by accident.

Three questions about the cost model (`repro.algebra.stats`, this PR):

1. **Join reordering** — ``q_3way`` below joins orders, supplier and
   lineitem but is *written* with the two disconnected relations
   adjacent, so the stats-free physical pass (which only converts the
   σ-stack over the ×-tower in written order) materialises the
   ``orders × supplier`` Cartesian product.  With statistics the
   reorder-joins rule picks the join tree by estimated output
   cardinality and never builds it.  Acceptance: **≥ 2x** wall-clock
   for naïve evaluation at the full workload size (the Figure 2b pair
   is dominated by unification-condition checks, so it only asserts
   no-regression); the smoke run asserts the stats-driven plan is no
   slower than the stats-free one.
2. **Build-side flips with cardinality skew** — the same join query
   planned against two databases with opposite customer/order skew pins
   opposite hash-join build sides, with the estimated per-side
   cardinalities printed.  No cache clearing between the two plans: the
   statistics fingerprint in the optimizer memo key is what replans.
3. **Strategy flips with injected nulls** — ``strategy="auto"`` on a
   division query (outside the Figure 2 fragments) picks
   ``exact-certain`` while the number of valuations it would enumerate
   (of the nulls in ``orders``, the relation it reads) fits the budget
   and falls back to naïve evaluation once injected nulls blow past it.  The numeric estimates
   behind both decisions are visible in ``result.metadata["plan"]``.

Every stats-driven result is compared tuple-for-tuple against its
stats-free twin (the randomized harness in
``tests/test_differential.py`` does this exhaustively; the
benchmark re-checks at benchmark scale).

Run under pytest (``python -m pytest benchmarks/bench_stats.py``) or
directly as a script::

    python benchmarks/bench_stats.py            # full sweep (asserts ≥2x)
    python benchmarks/bench_stats.py --smoke    # tiny config for CI
                                                # (asserts stats ≤ stats-free)
"""

from __future__ import annotations

import pathlib
import random
import sys

# Script mode (`python benchmarks/bench_stats.py --smoke`) runs without
# the conftest path hook; mirror it so `import repro` works.
_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro import Database, Engine, Null, Relation
from repro.algebra import ast as ra
from repro.algebra import builder as rb, walk
from repro.algebra.conditions import Attr, Eq
from repro.algebra.optimize import optimize_plan
from repro.algebra.stats import Stats, estimate_cost
from repro.bench import ResultTable, time_call
from repro.workloads.tpch_lite import TpchLiteConfig, generate_tpch_lite

#: Full-size config: the mis-written tower's orders × supplier product
#: is 200·80 = 16k rows wide enough that reordering dominates overhead.
FULL = TpchLiteConfig(
    customers=60, orders=200, lineitems=300, suppliers=80, null_rate=0.02
)
#: Smoke config: CI wiring check only.
SMOKE = TpchLiteConfig(
    customers=20, orders=60, lineitems=80, suppliers=25, null_rate=0.02
)

SPEEDUP_FLOOR = 2.0


def _three_way_tower() -> ra.Query:
    """orders ⋈ lineitem ⋈ supplier, written with the two *disconnected*
    relations adjacent — the shape only join reordering can rescue."""
    tower = rb.product(
        rb.product(rb.relation("orders"), rb.relation("supplier")),
        rb.relation("lineitem"),
    )
    tower = rb.select(tower, Eq(Attr("o_orderkey"), Attr("l_orderkey")))
    tower = rb.select(tower, Eq(Attr("s_suppkey"), Attr("l_suppkey")))
    return rb.project(tower, ["o_orderkey", "l_linekey", "s_name"])


def _with_k_nulls(
    db: Database, k: int, seed: int = 5, relations: tuple[str, ...] | None = None
) -> Database:
    """Replace ``k`` cells of ``db`` (of ``relations``, default all) with
    fresh marked nulls."""
    rng = random.Random(seed)
    rows = {name: list(rel.iter_rows_bag()) for name, rel in db.relations()}
    positions = [
        (name, i, j)
        for name, rels in rows.items()
        if relations is None or name in relations
        for i, row in enumerate(rels)
        for j in range(len(row))
    ]
    for index, (name, i, j) in enumerate(rng.sample(positions, k)):
        row = list(rows[name][i])
        row[j] = Null(f"b{index}")
        rows[name][i] = tuple(row)
    return Database(
        {name: Relation(db[name].attributes, rels) for name, rels in rows.items()}
    )


def _assert_identical(plain, fast, label: str) -> None:
    assert plain.relation.rows_bag() == fast.relation.rows_bag(), (
        f"{label}: stats-driven result differs from stats-free"
    )
    for side in ("certain", "possible", "certainly_false"):
        a, b = getattr(plain, side), getattr(fast, side)
        assert (a is None) == (b is None), f"{label}: {side} presence differs"
        if a is not None:
            assert a.rows_set() == b.rows_set(), f"{label}: {side} differs"


# ----------------------------------------------------------------------
# 1. Join reordering: wall clock + estimated C_out, stats off vs on
# ----------------------------------------------------------------------
def run_join_reordering(config: TpchLiteConfig, *, smoke: bool) -> None:
    database = generate_tpch_lite(config)
    query = _three_way_tower()
    schema = database.schema()
    stats = Stats(database)
    blind_cost = estimate_cost(optimize_plan(query, schema), schema, stats)
    informed_cost = estimate_cost(
        optimize_plan(query, schema, stats=stats), schema, stats
    )
    table = ResultTable(
        f"E18: 3-way tower, |orders|={config.orders} |supplier|="
        f"{config.suppliers} |lineitem|={config.lineitems} "
        f"(estimated C_out {blind_cost:.0f} -> {informed_cost:.0f})",
        ["strategy", "stats off (ms)", "stats on (ms)", "speedup"],
    )
    speedups: dict[str, float] = {}
    # Stats steer the *interpreter's* join order; SQLite reorders joins
    # with its own planner, so under backend="auto" both sides would run
    # the same physical join and the measured difference would vanish.
    # E19 (bench_backend.py) owns the backend comparison.
    with Engine(backend="interpreter") as engine:
        for strategy in ("naive", "approx-guagliardo16"):
            plain_seconds, plain = time_call(
                lambda s=strategy: engine.evaluate(
                    query, database, strategy=s, optimize=True, stats=False,
                    use_cache=False,
                ),
                repeat=1,
            )
            fast_seconds, fast = time_call(
                lambda s=strategy: engine.evaluate(
                    query, database, strategy=s, optimize=True, stats=True,
                    use_cache=False,
                ),
                repeat=1,
            )
            _assert_identical(plain, fast, strategy)
            speedups[strategy] = plain_seconds / fast_seconds
            table.add_row(
                strategy,
                plain_seconds * 1e3,
                fast_seconds * 1e3,
                f"{speedups[strategy]:.1f}x",
            )
    table.print()
    assert informed_cost < blind_cost, (
        f"statistics did not lower the estimated cost "
        f"({blind_cost:.0f} -> {informed_cost:.0f})"
    )
    if smoke:
        # CI wiring check: the cost model must never lose on its home turf.
        assert speedups["naive"] >= 1.0, (
            f"stats-driven naive evaluation slower than stats-free "
            f"({speedups['naive']:.2f}x) on the E18 selective-join workload"
        )
        return
    assert speedups["naive"] >= SPEEDUP_FLOOR, (
        f"naive 3-way tower speedup {speedups['naive']:.1f}x below the "
        f"{SPEEDUP_FLOOR}x acceptance floor"
    )
    # The translated pair spends most of its time in per-tuple
    # unification-condition checks rather than in the join itself, so
    # only no-regression is asserted there.
    assert speedups["approx-guagliardo16"] >= 1.0, (
        f"(Q+, Q?) 3-way tower slowed down under statistics "
        f"({speedups['approx-guagliardo16']:.1f}x)"
    )


# ----------------------------------------------------------------------
# 2. Cardinality skew flips the hash-join build side (no cache clears)
# ----------------------------------------------------------------------
def run_build_side_flip() -> None:
    query = rb.select(
        rb.product(rb.relation("customer"), rb.relation("orders")),
        Eq(Attr("c_custkey"), Attr("o_custkey")),
    )
    table = ResultTable(
        "E18: build side under opposite customer/order skew",
        ["|customer|", "|orders|", "build side", "est. left", "est. right"],
    )
    builds = []
    for customers, orders in ((60, 12), (12, 60)):
        database = generate_tpch_lite(
            TpchLiteConfig(customers=customers, orders=orders)
        )
        stats = Stats(database)
        plan = optimize_plan(query, database.schema(), stats=stats)
        join = next(n for n in walk(plan) if isinstance(n, ra.EquiJoin))
        from repro.algebra.stats import PlanEstimator

        estimator = PlanEstimator(database.schema(), stats)
        builds.append(join.build)
        table.add_row(
            customers,
            orders,
            join.build,
            f"{estimator.estimate(join.left).rows:.0f}",
            f"{estimator.estimate(join.right).rows:.0f}",
        )
    table.print()
    assert builds == ["right", "left"], (
        f"expected opposite skew to pin opposite build sides, got {builds} "
        "(is the statistics fingerprint missing from the optimizer memo key?)"
    )


# ----------------------------------------------------------------------
# 3. Injected nulls flip the auto-planner's strategy choice
# ----------------------------------------------------------------------
def run_planner_flip() -> None:
    base = generate_tpch_lite(TpchLiteConfig())
    orders = rb.relation("orders")
    # Division is outside the Figure 2 fragments, so the auto planner
    # weighs exact-certain's valuation count against its budget.  Only
    # the nulls of the relation the query reads are valued, so that is
    # where they go.
    query = rb.division(
        rb.project(orders, ["o_custkey", "o_orderstatus"]),
        rb.project(orders, ["o_orderstatus"]),
    )
    table = ResultTable(
        "E18: auto strategy vs injected nulls (budget 10^4 valuations)",
        ["nulls", "chosen strategy", "guarantee", "estimated valuations"],
    )
    chosen = []
    with Engine() as engine:
        for nulls in (1, 6):
            database = _with_k_nulls(base, nulls, relations=("orders",))
            result = engine.evaluate(
                query, database, strategy="auto", use_cache=False
            )
            plan = result.metadata["plan"]
            estimate = plan["estimates"]["exact-certain-valuations"]
            chosen.append(plan["strategy"])
            table.add_row(nulls, plan["strategy"], plan["guarantee"], f"{estimate:.0f}")
    table.print()
    assert chosen == ["exact-certain", "naive"], (
        f"expected the null injection to flip exact-certain -> naive, got {chosen}"
    )


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_join_reordering_speedup():
    run_join_reordering(FULL, smoke=False)


def test_build_side_flip():
    run_build_side_flip()


def test_planner_flip_on_injected_nulls():
    run_planner_flip()


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="E18 statistics benchmark")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workload, correctness + no-regression checks only (CI wiring)",
    )
    args = parser.parse_args()
    run_join_reordering(SMOKE if args.smoke else FULL, smoke=args.smoke)
    run_build_side_flip()
    run_planner_flip()
    print("\nE18 ok" + (" (smoke)" if args.smoke else ""))
