"""E1 — Figure 1 and the Section 1 motivating examples.

Regenerates the paper's introductory table: what SQL returns on the
complete and on the incomplete variant of the orders/payments/customers
database, against the certain answers and the sound Q+ approximation.
The paper's claims: a single NULL makes the unpaid-orders query lose o3
(false negative), makes the customers query invent c2 (false positive),
and makes the `oid='o2' OR oid<>'o2'` query miss the certain answer c2.

The SQL column is also produced on the engine's production path,
``Engine.evaluate(..., strategy="sql-3vl")``, which must answer exactly as
the SQL evaluator: ``NOT IN`` falls back to the evaluator, the correlated
``NOT EXISTS`` and the tautology run as three-valued plans.
"""

from __future__ import annotations

from repro.algebra import evaluate
from repro.approx import translate_guagliardo16
from repro.bench import ResultTable
from repro.engine import Engine
from repro.incomplete import certain_answers_with_nulls
from repro.sql import run_sql
from repro.workloads import (
    CUSTOMERS_WITHOUT_PAID_ORDER_SQL,
    TAUTOLOGY_SQL,
    UNPAID_ORDERS_SQL,
    customers_without_paid_order_algebra,
    figure1_database,
    figure1_database_with_null,
    tautology_algebra,
    unpaid_orders_algebra,
)

QUERIES = [
    ("unpaid orders", UNPAID_ORDERS_SQL, unpaid_orders_algebra()),
    ("customers w/o paid order", CUSTOMERS_WITHOUT_PAID_ORDER_SQL, customers_without_paid_order_algebra()),
    ("oid='o2' OR oid<>'o2'", TAUTOLOGY_SQL, tautology_algebra()),
]

#: How ``sql-3vl`` runs each query: NOT IN has no exact plan (one null in
#: the subquery filters every row), the other two lower to plans.
SQL_3VL_EVALUATOR = {
    "unpaid orders": "sql-evaluator",
    "customers w/o paid order": "plan",
    "oid='o2' OR oid<>'o2'": "plan",
}


def _rows(relation):
    return "{" + ", ".join(str(r[0]) for r in relation.sorted_rows()) + "}"


def test_figure1_sql_vs_certainty(benchmark):
    complete = figure1_database()
    incomplete = figure1_database_with_null()
    schema = incomplete.schema()

    def run_all():
        results = []
        for name, sql_text, algebra_query in QUERIES:
            sql_complete = run_sql(complete, sql_text)
            sql_incomplete = run_sql(incomplete, sql_text)
            certain = certain_answers_with_nulls(algebra_query, incomplete)
            plus = evaluate(translate_guagliardo16(algebra_query, schema).certain, incomplete)
            results.append((name, sql_complete, sql_incomplete, certain, plus))
        return results

    results = benchmark(run_all)

    table = ResultTable(
        "E1: Figure 1 — SQL answers vs certain answers (one NULL in Payments)",
        ["query", "SQL on complete D", "SQL with NULL", "certain answers", "Q+ (sound)"],
    )
    for name, sql_complete, sql_incomplete, certain, plus in results:
        table.add_row(name, _rows(sql_complete), _rows(sql_incomplete), _rows(certain), _rows(plus))
    table.print()

    # Paper-shape assertions: false negative, false positive, missed certain answer.
    by_name = {r[0]: r for r in results}
    assert by_name["unpaid orders"][1].rows_set() == {("o3",)}
    assert by_name["unpaid orders"][2].rows_set() == set()
    assert by_name["customers w/o paid order"][2].rows_set() == {("c2",)}
    assert by_name["customers w/o paid order"][3].rows_set() == set()
    assert by_name["oid='o2' OR oid<>'o2'"][2].rows_set() == {("c1",)}
    assert by_name["oid='o2' OR oid<>'o2'"][3].rows_set() == {("c1",), ("c2",)}

    # The production path answers exactly as the SQL evaluator, bag for bag.
    engine = Engine()
    for name, sql_text, _algebra in QUERIES:
        for database in (complete, incomplete):
            result = engine.evaluate(
                sql_text, database, strategy="sql-3vl", semantics="bag",
                use_cache=False,
            )
            expected = run_sql(database, sql_text)
            assert result.relation.attributes == expected.attributes, name
            assert result.relation.rows_bag() == expected.rows_bag(), name
            assert result.metadata["evaluator"] == SQL_3VL_EVALUATOR[name], name
