"""E11 — The cost of exactness: valuation enumeration vs approximation.

Theorems 3.11/3.12 say exact certain answers are intractable (coNP-hard
under CWA).  The full valuation space is ``|pool|^|Null(D)|``; the
exact enumeration values only the nulls the query reads and takes the
fresh constants in first-use order, so for ``k`` nulls and ``c`` known
constants it checks at most ``Σ_j C(k,j)·c^(k−j)·Bell(j)`` valuations
(and stops once every candidate is refuted).  That count is still
exponential in the number of nulls, on a smaller base, while the Q+
rewriting stays polynomial.  The benchmark exhibits both curves.
"""

from __future__ import annotations

import pytest

from repro.algebra import builder as rb, evaluate
from repro.approx import translate_guagliardo16
from repro.bench import ResultTable, time_call
from repro.datamodel import Database, Null, Relation
from repro.incomplete import certain_answers_with_nulls

NULL_COUNTS = (1, 2, 3, 4)
QUERY = rb.difference(rb.relation("R"), rb.relation("S"))


def _database(null_count: int) -> Database:
    nulls = [Null(f"e11_{i}") for i in range(null_count)]
    r_rows = [(i,) for i in range(4)]
    s_rows = [(n,) for n in nulls]
    return Database({"R": Relation(("A",), r_rows), "S": Relation(("A",), s_rows)})


@pytest.mark.parametrize("null_count", NULL_COUNTS)
def test_exact_certain_answers_cost(benchmark, null_count):
    db = _database(null_count)
    benchmark.pedantic(
        lambda: certain_answers_with_nulls(QUERY, db), rounds=2, iterations=1
    )


def test_exact_vs_approximate_summary(benchmark):
    def run():
        rows = []
        for null_count in NULL_COUNTS:
            db = _database(null_count)
            counts: dict = {}
            exact_time, _ = time_call(
                lambda: certain_answers_with_nulls(QUERY, db, counts=counts), repeat=1
            )
            pair = translate_guagliardo16(QUERY, db.schema())
            approx_time, _ = time_call(lambda: evaluate(pair.certain, db), repeat=1)
            rows.append(
                (
                    null_count,
                    counts["full"],
                    counts["symmetric"],
                    counts["enumerated"],
                    exact_time * 1000,
                    approx_time * 1000,
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    table = ResultTable(
        "E11: exact cert⊥ (valuation enumeration) vs Q+ rewriting",
        [
            "nulls in D",
            "valuations (full)",
            "valuations (reduced)",
            "enumerated",
            "exact (ms)",
            "Q+ (ms)",
        ],
    )
    for row in rows:
        table.add_row(*row)
    table.print()

    # Shape: both valuation counts explode, the reduced one on a smaller
    # base; the approximation does not track them.
    assert rows[-1][1] > 100 * rows[0][1]
    assert rows[-1][2] > 100 * rows[0][2]
    assert all(row[3] <= row[2] < row[1] or row[0] == 1 for row in rows)
    assert rows[-1][5] < rows[-1][4] or rows[-1][4] < 1.0
