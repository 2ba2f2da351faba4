"""E15 — Plan optimizer: hash equi-joins vs materialised products.

Three questions about the rule-based optimizer (`repro.algebra.optimize`,
PR 4):

1. **Selective joins** — on ``σ_{b=c ∧ a=v}(R × S)`` the unoptimized
   evaluator materialises the |R|·|S| Cartesian product and filters;
   the optimizer pushes the point selection into ``R`` and turns the
   cross-column equality into a hash :class:`~repro.algebra.EquiJoin`.
   Acceptance: **≥ 5x** wall-clock at the full workload size.
2. **Translated plans** — the Figure 2b (Q+, Q?) pair inherits the same
   ``Selection(Product)`` shape, so ``approx-guagliardo16`` must speed
   up as well; the Figure 2a (Qt, Qf) pair additionally builds ``Dom^k``
   towers, which the optimizer constrains via
   :class:`~repro.algebra.ConstrainedDomainRelation`.
3. **Zero result changes** — every optimized result in the sweep is
   compared tuple-for-tuple against its unoptimized twin (the
   randomized harness in ``tests/test_differential.py`` does
   this exhaustively; the benchmark re-checks it at benchmark scale).

Run under pytest (``python -m pytest benchmarks/bench_optimizer.py``) or
directly as a script::

    python benchmarks/bench_optimizer.py            # full sweep (asserts ≥5x)
    python benchmarks/bench_optimizer.py --smoke    # tiny config for CI
                                                    # (asserts optimized ≤ unoptimized)
"""

from __future__ import annotations

import pathlib
import random
import sys

# Script mode (`python benchmarks/bench_optimizer.py --smoke`) runs
# without the conftest path hook; mirror it so `import repro` works.
_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro import Database, Engine, Null, Relation
from repro.algebra import builder as rb
from repro.algebra.conditions import And, Attr, Eq
from repro.bench import ResultTable, time_call

#: Full-size config: a 300×300 product is ~90k rows unoptimized, big
#: enough that the hash join's asymptotic win dominates fixed overhead.
FULL_ROWS = 300
#: Smoke config: CI wiring check only.
SMOKE_ROWS = 60
#: The Figure 2a case stays small: its Qf side ranges over Dom^4.
LIBKIN_ROWS = 10

SPEEDUP_FLOOR = 5.0


def _join_database(rows: int, *, null_rate: float = 0.02, seed: int = 7) -> Database:
    rng = random.Random(seed)
    domain = [f"v{i}" for i in range(max(8, rows // 4))]

    def cell(prefix: str, i: int):
        if rng.random() < null_rate:
            return Null(f"{prefix}{i}")
        return rng.choice(domain)

    r_rows = [(cell("ra", i), cell("rb", i)) for i in range(rows)]
    s_rows = [(cell("sc", i), cell("sd", i)) for i in range(rows)]
    return Database({"R": Relation(("a", "b"), r_rows), "S": Relation(("c", "d"), s_rows)})


def _selective_join_query():
    """σ_{a='v1' ∧ b=c}(R × S): one pushable point selection, one join key."""
    return rb.select(
        rb.product(rb.relation("R"), rb.relation("S")),
        And(Eq(Attr("a"), Attr("a")), And(Eq(Attr("b"), Attr("c")), Eq(Attr("a"), rb.lit("v1")))),
    )


def _assert_identical(plain, fast, label: str) -> None:
    assert plain.relation.rows_bag() == fast.relation.rows_bag(), (
        f"{label}: optimized result differs from unoptimized"
    )
    for side in ("certain", "possible", "certainly_false"):
        a, b = getattr(plain, side), getattr(fast, side)
        assert (a is None) == (b is None), f"{label}: {side} presence differs"
        if a is not None:
            assert a.rows_set() == b.rows_set(), f"{label}: {side} differs"


def run_join_speedup(rows: int, *, smoke: bool) -> None:
    database = _join_database(rows)
    query = _selective_join_query()
    table = ResultTable(
        f"E15: optimizer on σ(R × S), |R| = |S| = {rows}",
        ["strategy", "unoptimized (ms)", "optimized (ms)", "speedup"],
    )
    speedups: dict[str, float] = {}
    # This experiment measures the *plan optimizer*, so both sides run
    # on the interpreter: under the default backend="auto" the SQLite
    # pushdown executes even the unoptimized σ(×) as a hash join (its
    # own planner rewrites the WHERE comma join) and flattens the very
    # difference being measured.  E19 (bench_backend.py) owns the
    # backend comparison.
    with Engine(backend="interpreter") as engine:
        for strategy in ("naive", "approx-guagliardo16"):
            plain_seconds, plain = time_call(
                lambda s=strategy: engine.evaluate(
                    query, database, strategy=s, optimize=False, use_cache=False
                ),
                repeat=1,
            )
            fast_seconds, fast = time_call(
                lambda s=strategy: engine.evaluate(
                    query, database, strategy=s, optimize=True, use_cache=False
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
    if smoke:
        # CI wiring check: the optimizer must never lose on its home turf.
        assert speedups["naive"] >= 1.0, (
            f"optimized naive evaluation slower than unoptimized "
            f"({speedups['naive']:.2f}x) on the E15 selective-join workload"
        )
        return
    assert speedups["naive"] >= SPEEDUP_FLOOR, (
        f"naive σ(R × S) speedup {speedups['naive']:.1f}x below the "
        f"{SPEEDUP_FLOOR}x acceptance floor"
    )
    assert speedups["approx-guagliardo16"] >= SPEEDUP_FLOOR, (
        f"(Q+, Q?) σ(R × S) speedup {speedups['approx-guagliardo16']:.1f}x "
        f"below the {SPEEDUP_FLOOR}x acceptance floor"
    )


def run_domain_constraining(*, smoke: bool) -> None:
    """Figure 2a: Qf ranges over Dom^k; the optimizer prunes its enumeration."""
    database = _join_database(LIBKIN_ROWS, null_rate=0.1, seed=11)
    query = rb.select(
        rb.product(rb.relation("R"), rb.relation("S")), Eq(Attr("b"), Attr("c"))
    )
    table = ResultTable(
        "E15: Figure 2a (Qt, Qf) with Dom^4 towers",
        ["strategy", "unoptimized (ms)", "optimized (ms)", "speedup"],
    )
    with Engine() as engine:
        plain_seconds, plain = time_call(
            lambda: engine.evaluate(
                query, database, strategy="approx-libkin16",
                optimize=False, use_cache=False,
            ),
            repeat=1,
        )
        fast_seconds, fast = time_call(
            lambda: engine.evaluate(
                query, database, strategy="approx-libkin16",
                optimize=True, use_cache=False,
            ),
            repeat=1,
        )
    _assert_identical(plain, fast, "approx-libkin16")
    speedup = plain_seconds / fast_seconds
    table.add_row(
        "approx-libkin16", plain_seconds * 1e3, fast_seconds * 1e3, f"{speedup:.1f}x"
    )
    table.print()
    if not smoke:
        assert speedup >= 1.0, (
            f"optimized (Qt, Qf) evaluation slower ({speedup:.2f}x) than unoptimized"
        )


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_selective_join_speedup():
    run_join_speedup(FULL_ROWS, smoke=False)


def test_domain_constraining():
    run_domain_constraining(smoke=False)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="E15 optimizer benchmark")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workload, correctness + no-regression checks only (CI wiring)",
    )
    args = parser.parse_args()
    run_join_speedup(SMOKE_ROWS if args.smoke else FULL_ROWS, smoke=args.smoke)
    run_domain_constraining(smoke=args.smoke)
    print("\nE15 ok" + (" (smoke)" if args.smoke else ""))
