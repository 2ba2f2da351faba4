"""Tests for the SQL frontend: lexer, parser, SQL-semantics evaluation, compiler."""

from __future__ import annotations

import pytest

from repro.algebra import evaluate
from repro.datamodel import Database, Null, Relation
from repro.incomplete import certain_answers_with_nulls
from repro.sql import (
    SqlCompilationError,
    SqlSyntaxError,
    compile_sql,
    parse,
    run_sql,
    tokenize,
)
from repro.sql import ast as sql_ast
from repro.workloads import (
    CUSTOMERS_WITHOUT_PAID_ORDER_SQL,
    TAUTOLOGY_SQL,
    UNPAID_ORDERS_SQL,
    figure1_database,
    figure1_database_with_null,
    tautology_algebra,
    unpaid_orders_algebra,
)


class TestLexer:
    def test_basic_tokens(self):
        tokens = tokenize("SELECT a FROM t WHERE a = 'x''y' -- comment\n")
        kinds = [t.kind for t in tokens]
        assert kinds[:3] == ["KEYWORD", "IDENT", "KEYWORD"]
        strings = [t.value for t in tokens if t.kind == "STRING"]
        assert strings == ["x'y"]

    def test_numbers_and_symbols(self):
        tokens = tokenize("SELECT 3.5, 7 FROM t WHERE a <> 2")
        numbers = [t.value for t in tokens if t.kind == "NUMBER"]
        assert numbers == ["3.5", "7", "2"]

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("SELECT 'oops FROM t")

    def test_unexpected_character(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("SELECT a FROM t WHERE a @ 1")


class TestParser:
    def test_parse_simple_select(self):
        query = parse("SELECT a, b FROM t WHERE a = 1 AND b <> 'z'")
        assert isinstance(query, sql_ast.SelectQuery)
        assert [item.output_name() for item in query.items] == ["a", "b"]
        assert isinstance(query.where, sql_ast.BoolOp)

    def test_parse_not_in_and_exists(self):
        query = parse(UNPAID_ORDERS_SQL)
        assert isinstance(query.where, sql_ast.InSubquery)
        assert query.where.negated
        query2 = parse(CUSTOMERS_WITHOUT_PAID_ORDER_SQL)
        assert isinstance(query2.where, sql_ast.ExistsSubquery)
        assert query2.where.negated

    def test_parse_set_operations(self):
        query = parse("SELECT a FROM r UNION ALL SELECT a FROM s EXCEPT SELECT a FROM t")
        assert isinstance(query, sql_ast.SetOperation)
        assert query.op == "EXCEPT"
        assert isinstance(query.left, sql_ast.SetOperation)
        assert query.left.all

    def test_parse_distinct_star_aliases(self):
        query = parse("SELECT DISTINCT * FROM r x, s AS y")
        assert query.distinct and query.select_star
        assert [t.name() for t in query.tables] == ["x", "y"]

    def test_parse_is_null(self):
        query = parse("SELECT a FROM r WHERE a IS NOT NULL")
        assert isinstance(query.where, sql_ast.IsNull) and query.where.negated

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT a FROM r garbage! extra")

    def test_missing_from_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT a WHERE a = 1")


class TestSqlEvaluation:
    def test_figure1_queries_on_complete_data(self, figure1):
        assert run_sql(figure1, UNPAID_ORDERS_SQL).rows_set() == {("o3",)}
        assert run_sql(figure1, CUSTOMERS_WITHOUT_PAID_ORDER_SQL).rows_set() == set()

    def test_figure1_false_negative_and_false_positive(self, figure1_null):
        """The Section 1 phenomenon: one NULL flips both queries."""
        # False negative: the unpaid order o3 disappears.
        assert run_sql(figure1_null, UNPAID_ORDERS_SQL).rows_set() == set()
        # False positive: c2 appears although it is not a certain answer.
        sql_answers = run_sql(figure1_null, CUSTOMERS_WITHOUT_PAID_ORDER_SQL)
        assert sql_answers.rows_set() == {("c2",)}

    def test_tautology_query_misses_certain_answer(self, figure1_null):
        assert run_sql(figure1_null, TAUTOLOGY_SQL).rows_set() == {("c1",)}
        truth = certain_answers_with_nulls(tautology_algebra(), figure1_null)
        assert truth.rows_set() == {("c1",), ("c2",)}

    def test_null_comparisons_are_unknown(self, null_x):
        db = Database({"r": Relation(("a",), [(null_x,), (1,)])})
        assert run_sql(db, "SELECT a FROM r WHERE a = 1").rows_set() == {(1,)}
        assert run_sql(db, "SELECT a FROM r WHERE a <> 1").rows_set() == set()
        assert run_sql(db, "SELECT a FROM r WHERE a IS NULL").rows_set() == {(null_x,)}

    def test_in_with_null_never_true_but_not_false(self, null_x):
        db = Database(
            {"r": Relation(("a",), [(1,), (2,)]), "s": Relation(("a",), [(1,), (null_x,)])}
        )
        in_answers = run_sql(db, "SELECT a FROM r WHERE a IN (SELECT a FROM s)")
        not_in_answers = run_sql(db, "SELECT a FROM r WHERE a NOT IN (SELECT a FROM s)")
        assert in_answers.rows_set() == {(1,)}
        assert not_in_answers.rows_set() == set()

    def test_bag_semantics_and_distinct(self):
        db = Database({"r": Relation(("a",), [(1,), (1,)])})
        plain = run_sql(db, "SELECT a FROM r")
        distinct = run_sql(db, "SELECT DISTINCT a FROM r")
        assert plain.multiplicity((1,)) == 2
        assert distinct.multiplicity((1,)) == 1

    def test_set_operations(self):
        db = Database(
            {"r": Relation(("a",), [(1,), (2,)]), "s": Relation(("a",), [(2,), (3,)])}
        )
        assert run_sql(db, "SELECT a FROM r UNION SELECT a FROM s").rows_set() == {
            (1,),
            (2,),
            (3,),
        }
        assert run_sql(db, "SELECT a FROM r EXCEPT SELECT a FROM s").rows_set() == {(1,)}
        assert run_sql(db, "SELECT a FROM r INTERSECT SELECT a FROM s").rows_set() == {(2,)}

    def test_correlated_exists(self, figure1):
        query = (
            "SELECT O.oid FROM Orders O WHERE EXISTS "
            "( SELECT * FROM Payments P WHERE P.oid = O.oid )"
        )
        assert run_sql(figure1, query).rows_set() == {("o1",), ("o2",)}

    def test_unknown_table_and_column_errors(self, figure1):
        with pytest.raises(ValueError):
            run_sql(figure1, "SELECT x FROM Nothing")
        with pytest.raises(ValueError):
            run_sql(figure1, "SELECT nope FROM Orders")

    def test_comparison_ordering(self, figure1):
        cheap = run_sql(figure1, "SELECT title FROM Orders WHERE price <= 35")
        assert cheap.rows_set() == {("Big Data",), ("SQL",)}


class TestSqlCompiler:
    def test_compile_and_evaluate_matches_sql_on_complete_data(self, figure1):
        text = "SELECT title FROM Orders WHERE price > 30"
        compiled = compile_sql(text, figure1.schema())
        assert evaluate(compiled, figure1).rows_set() == run_sql(figure1, text).rows_set()

    def test_compile_join(self, figure1):
        text = (
            "SELECT C.name FROM Customers C, Payments P "
            "WHERE C.cid = P.cid AND P.oid = 'o1'"
        )
        compiled = compile_sql(text, figure1.schema())
        assert evaluate(compiled, figure1).rows_set() == {("John",)}

    def test_compile_set_operation(self, figure1):
        text = "SELECT cid FROM Payments UNION SELECT cid FROM Customers"
        compiled = compile_sql(text, figure1.schema())
        assert evaluate(compiled, figure1).rows_set() == {("c1",), ("c2",)}

    def test_uncorrelated_not_in_compiles_to_antijoin(self, figure1):
        # The parser always accepted this; now the compiler does too.
        plan = compile_sql(UNPAID_ORDERS_SQL, figure1.schema())
        from repro.algebra.ast import AntiSemiJoin, walk
        from repro.algebra.evaluator import Evaluator

        assert any(isinstance(node, AntiSemiJoin) for node in walk(plan))
        assert Evaluator().evaluate(plan, figure1).rows_set() == {("o3",)}

    def test_correlated_subqueries_not_compilable(self, figure1):
        from repro.workloads.figure1 import CUSTOMERS_WITHOUT_PAID_ORDER_SQL

        with pytest.raises(SqlCompilationError, match="[Cc]orrelated"):
            compile_sql(CUSTOMERS_WITHOUT_PAID_ORDER_SQL, figure1.schema())

    def test_unknown_table_rejected(self, figure1):
        with pytest.raises(SqlCompilationError):
            compile_sql("SELECT a FROM missing", figure1.schema())

    def test_ambiguous_unqualified_column_rejected(self):
        db = Database(
            {"r": Relation(("a",), [(1,)]), "s": Relation(("a", "b"), [(1, 2)])}
        )
        with pytest.raises(SqlCompilationError, match="ambiguous column 'a'"):
            compile_sql("SELECT a FROM r, s", db.schema())
        with pytest.raises(ValueError, match="ambiguous column 'a'"):
            run_sql(db, "SELECT a FROM r, s")
        # A qualified reference, or a column only one FROM item has, is fine.
        compile_sql("SELECT r.a, b FROM r, s", db.schema())


class TestThreeValuedLowering:
    """``sql-3vl`` runs the Figure 1 queries through the plan pipeline."""

    FIGURE1 = (
        (UNPAID_ORDERS_SQL, "sql-evaluator"),
        (CUSTOMERS_WITHOUT_PAID_ORDER_SQL, "plan"),
        (TAUTOLOGY_SQL, "plan"),
    )

    @pytest.mark.parametrize("semantics", ["set", "bag"])
    def test_figure1_answers_match_run_sql(self, figure1, figure1_null, semantics):
        from repro import Engine

        engine = Engine()
        for db in (figure1, figure1_null):
            for sql, evaluator in self.FIGURE1:
                result = engine.evaluate(
                    sql, db, strategy="sql-3vl", semantics=semantics, use_cache=False
                )
                expected = run_sql(db, sql)
                if semantics == "set":
                    expected = expected.distinct()
                assert result.relation.attributes == expected.attributes
                assert result.relation.rows_bag() == expected.rows_bag(), sql
                assert result.metadata["evaluator"] == evaluator, sql
                if evaluator == "sql-evaluator":
                    # NOT IN: one null in the subquery filters every row.
                    assert "NOT IN" in result.metadata["fallback"]

    def test_correlated_not_exists_is_decorrelated(self, figure1):
        from repro.algebra.ast import AntiSemiJoin, walk
        from repro.sql import compile_sql_3vl

        plan = compile_sql_3vl(CUSTOMERS_WITHOUT_PAID_ORDER_SQL, figure1.schema())
        assert any(isinstance(node, AntiSemiJoin) for node in walk(plan))

    @pytest.mark.parametrize(
        "sql, construct",
        [
            ("SELECT * FROM Orders", "SELECT \\*"),
            ("SELECT oid FROM Orders WHERE NOT (price < 40)", "NOT"),
            ("SELECT oid FROM Orders WHERE oid NOT IN (SELECT oid FROM Payments)", "NOT IN"),
            ("SELECT oid FROM Orders EXCEPT ALL SELECT oid FROM Payments", "EXCEPT ALL"),
            ("SELECT cid FROM Payments WHERE oid = NULL", "SqlNull"),
        ],
    )
    def test_refusals_name_the_construct(self, figure1, sql, construct):
        from repro.sql import compile_sql_3vl

        with pytest.raises(SqlCompilationError, match=construct):
            compile_sql_3vl(sql, figure1.schema())

    def test_bag_semantics_refuses_distinct_and_plain_set_operations(self, figure1):
        from repro.sql import compile_sql_3vl

        for sql in (
            "SELECT DISTINCT cid FROM Payments",
            "SELECT cid FROM Payments UNION SELECT cid FROM Customers",
        ):
            compile_sql_3vl(sql, figure1.schema(), bag=False)
            with pytest.raises(SqlCompilationError, match="bag semantics"):
                compile_sql_3vl(sql, figure1.schema(), bag=True)
