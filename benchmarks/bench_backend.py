"""E19 — SQLite pushdown backend vs the tuple-at-a-time interpreter.

E15 measured the plan optimizer; both of its contestants still ran on
the Python interpreter.  This experiment holds the plan fixed (both
sides get the same optimized plan) and swaps the *executor*: the
``backend="sqlite"`` columnar backend compiles the whole plan to one
SQL statement over in-memory SQLite, while ``backend="interpreter"``
walks it tuple by tuple.  Three questions:

1. **Selective multi-way joins** — E15's workload at 10x scale, grown
   to a three-way chain ``π_a(σ_{b=c ∧ d=e}(R × S × T))`` with
   |R| = |S| = |T| = 3000 (E15 full is 300×300).  The interpreter
   streams every intermediate tuple through Python; SQLite runs the
   same hash joins in C and only ~50 distinct rows cross back over the
   decode boundary.  Acceptance: **≥ 10x** wall-clock.
2. **Translated plans** — the Figure 2b (Q+, Q?) pair pays the
   interpreter toll twice (certain and possible plans), and the
   possible-answers side grows super-linearly in Python; SQLite
   executes both statements against one encoded database.
3. **Zero result changes** — every SQLite result in the sweep is
   compared tuple-for-tuple against its interpreter twin (the
   randomized harness in ``tests/test_differential.py`` does
   this exhaustively; the benchmark re-checks it at benchmark scale).
   Plans the compiler cannot express (here: Division) must fall back
   to the interpreter under ``backend="auto"`` and say so in
   ``result.metadata["backend"]``.

Run under pytest (``python -m pytest benchmarks/bench_backend.py``) or
directly as a script::

    python benchmarks/bench_backend.py            # full sweep (asserts ≥10x)
    python benchmarks/bench_backend.py --smoke    # tiny config for CI (asserts ≥5x)
"""

from __future__ import annotations

import pathlib
import random
import sys

# Script mode (`python benchmarks/bench_backend.py --smoke`) runs
# without the conftest path hook; mirror it so `import repro` works.
_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro import Database, Engine, Null, Relation
from repro.algebra import builder as rb
from repro.algebra.conditions import And, Attr, Eq

from repro.bench import BenchReport, ResultTable, time_call

#: Full-size config: 10x the E15 full workload (300×300).  The two
#: hash joins stream ~400k intermediate tuples through the
#: interpreter; the SQLite side encodes 18k cells and decodes ~50
#: distinct rows, so the C-speed join dominates the comparison.
FULL_ROWS = 3_000
#: Smoke config: CI-sized, still ~36k interpreter intermediates.
SMOKE_ROWS = 600
#: The (Q+, Q?) case stays moderate: its possible-answers plan is
#: super-linear on the interpreter (~4s at 400 rows, ~53s at 800).
TRANSLATED_ROWS = 400
TRANSLATED_SMOKE_ROWS = 150

#: Full runs must clear 10x (the PR acceptance bar), smoke runs 5x —
#: generous slack under the ~10-13x (naive) and ~25-35x (translated)
#: measured on an unloaded machine.
SPEEDUP_FLOOR = 10.0
SMOKE_SPEEDUP_FLOOR = 5.0


def _chain_database(rows: int, *, null_rate: float = 0.02, seed: int = 7) -> Database:
    """Three relations joined in a chain: R(a,b) ⋈ S(c,d) ⋈ T(e,f).

    The shared domain is deliberately small (rows/30) so each join has
    ~30x fanout: intermediates dwarf both the base tables (what SQLite
    must encode) and the distinct projection (what it must decode).
    """
    rng = random.Random(seed)
    domain = [f"v{i}" for i in range(max(8, rows // 30))]

    def cell(prefix: str, i: int):
        if rng.random() < null_rate:
            return Null(f"{prefix}{i}")
        return rng.choice(domain)

    def relation(name: str, attrs: tuple[str, str]) -> Relation:
        return Relation(attrs, [(cell(name, i), cell(name + "'", i)) for i in range(rows)])

    return Database(
        {
            "R": relation("r", ("a", "b")),
            "S": relation("s", ("c", "d")),
            "T": relation("t", ("e", "f")),
        }
    )


def _chain_join_query():
    """π_a(σ_{b=c ∧ d=e}(R × S × T)): two join keys, tiny distinct output."""
    return rb.project(
        rb.select(
            rb.product(rb.product(rb.relation("R"), rb.relation("S")), rb.relation("T")),
            And(Eq(Attr("b"), Attr("c")), Eq(Attr("d"), Attr("e"))),
        ),
        ("a",),
    )


def _assert_identical(interp, sqlite, label: str) -> None:
    assert interp.relation.rows_bag() == sqlite.relation.rows_bag(), (
        f"{label}: sqlite result differs from interpreter"
    )
    for side in ("certain", "possible", "certainly_false"):
        a, b = getattr(interp, side), getattr(sqlite, side)
        assert (a is None) == (b is None), f"{label}: {side} presence differs"
        if a is not None:
            assert a.rows_set() == b.rows_set(), f"{label}: {side} differs"


def _assert_resolved(result, expected: str, label: str) -> None:
    note = result.metadata.get("backend")
    assert note is not None and note.get("resolved") == expected, (
        f"{label}: expected backend to resolve to {expected!r}, got {note!r}"
    )


def run_backend_speedup(
    rows: int,
    translated_rows: int,
    *,
    smoke: bool,
    report: BenchReport | None = None,
) -> None:
    query = _chain_join_query()
    table = ResultTable(
        f"E19: backend on π(σ(R × S × T)), |R| = |S| = |T| = {rows}",
        ["strategy", "rows", "interpreter (ms)", "sqlite (ms)", "speedup"],
    )
    speedups: dict[str, float] = {}
    cases = [("naive", rows), ("approx-guagliardo16", translated_rows)]
    with Engine() as engine:
        for strategy, case_rows in cases:
            database = _chain_database(case_rows)
            slow_seconds, slow = time_call(
                lambda s=strategy, d=database: engine.evaluate(
                    query, d, strategy=s, backend="interpreter", use_cache=False
                ),
                repeat=1,
            )
            fast_seconds, fast = time_call(
                lambda s=strategy, d=database: engine.evaluate(
                    query, d, strategy=s, backend="sqlite", use_cache=False
                ),
                repeat=1,
            )
            _assert_identical(slow, fast, strategy)
            _assert_resolved(slow, "interpreter", strategy)
            _assert_resolved(fast, "sqlite", strategy)
            speedups[strategy] = slow_seconds / fast_seconds
            if report is not None:
                report.record(
                    strategy,
                    rows=case_rows,
                    interpreter_ms=slow_seconds * 1e3,
                    sqlite_ms=fast_seconds * 1e3,
                    speedup=speedups[strategy],
                )
            table.add_row(
                strategy,
                case_rows,
                slow_seconds * 1e3,
                fast_seconds * 1e3,
                f"{speedups[strategy]:.1f}x",
            )
    table.print()
    floor = SMOKE_SPEEDUP_FLOOR if smoke else SPEEDUP_FLOOR
    if report is not None:
        report.summarize(
            speedup_floor=floor, min_speedup=min(speedups.values())
        )
    for strategy, _ in cases:
        assert speedups[strategy] >= floor, (
            f"{strategy} sqlite speedup {speedups[strategy]:.1f}x below the "
            f"{floor}x {'smoke ' if smoke else ''}floor on the E19 chain-join workload"
        )


def run_auto_fallback(*, smoke: bool) -> None:
    """Division has no SQL compilation: backend="auto" must fall back.

    The point of ``auto`` is that callers keep one spelling and the
    planner routes: compilable plans go to SQLite, the rest run on the
    interpreter with the reason recorded in ``metadata["backend"]``.
    """
    del smoke  # same tiny workload either way
    database = Database(
        {
            "R": Relation(("a", "b"), [("x", "u"), ("x", "v"), ("y", "u")]),
            "S": Relation(("b",), [("u",), ("v",)]),
        }
    )
    query = rb.division(rb.relation("R"), rb.relation("S"))
    with Engine(backend="auto") as engine:
        result = engine.evaluate(query, database, strategy="naive", use_cache=False)
    note = result.metadata["backend"]
    assert note["requested"] == "auto" and note["resolved"] == "interpreter", note
    assert "Division" in note["reason"], note
    assert result.relation.rows_set() == {("x",)}
    print(f'E19: auto fallback on ÷ -> {note["resolved"]} ({note["reason"]})')


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_backend_speedup():
    report = BenchReport("backend")
    run_backend_speedup(FULL_ROWS, TRANSLATED_ROWS, smoke=False, report=report)
    print(f"wrote {report.write()}")


def test_auto_fallback():
    run_auto_fallback(smoke=False)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="E19 execution-backend benchmark")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized workload; asserts the relaxed 5x floor",
    )
    args = parser.parse_args()
    report = BenchReport("backend", smoke=args.smoke)
    if args.smoke:
        run_backend_speedup(SMOKE_ROWS, TRANSLATED_SMOKE_ROWS, smoke=True, report=report)
    else:
        run_backend_speedup(FULL_ROWS, TRANSLATED_ROWS, smoke=False, report=report)
    run_auto_fallback(smoke=args.smoke)
    print(f"\nwrote {report.write()}")
    print("E19 ok" + (" (smoke)" if args.smoke else ""))
