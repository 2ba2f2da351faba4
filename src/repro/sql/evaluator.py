"""SQL-semantics evaluation of the supported fragment.

This evaluator reproduces what a real SQL engine returns on a database
with nulls — including the behaviours the paper's introduction uses to
motivate the whole programme:

* comparisons involving ``NULL`` evaluate to ``unknown``;
* WHERE keeps only rows whose condition is *true* (the assertion-operator
  collapse of Section 5.2);
* ``x NOT IN (subquery)`` is false if some subquery value equals ``x``,
  unknown if none equals it but some comparison is unknown, true only
  when every comparison is definitely false — which is exactly how a
  single NULL in the subquery wipes out the "unpaid orders" answers;
* ``EXISTS`` is purely two-valued on the produced rows.

Marked nulls in the stored data are treated as SQL's single ``NULL`` for
comparisons (every comparison involving any null is unknown); this is
the ``codd`` reading discussed in Section 6.

Evaluation is bag-based (``SELECT DISTINCT`` deduplicates), matching the
SQL standard.

This nested-loop evaluator is the *reference* semantics of the
``sql-3vl`` strategy, not its usual engine: the strategy runs the plan
of :func:`repro.sql.compiler.compile_sql_3vl` through the optimizer and
the execution backends, and comes here only as the **fallback** for
queries the lowering cannot prove exact (``NOT IN``, ``NOT`` over order
comparisons, other correlations, ...).  It is also the **oracle** the
randomized harness checks those plans against.  Like the other
per-strategy modules it is the low-level layer under
``Engine.evaluate(sql_text, db, strategy="sql-3vl", semantics="bag")``.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, Mapping

from ..datamodel.database import Database
from ..datamodel.relation import Relation
from ..datamodel.values import Value, is_null
from ..mvl.truthvalues import FALSE, TRUE, UNKNOWN, TruthValue
from ..mvl.kleene import kleene_and, kleene_not, kleene_or
from . import ast
from .parser import parse

__all__ = ["SqlEvaluator", "run_sql"]

#: A row environment: a list of scopes (innermost first), each scope mapping
#: alias → (attributes, row values).  Column resolution searches the innermost
#: scope first, as SQL name resolution does for correlated subqueries.
Environment = list


class SqlEvaluationError(ValueError):
    """Raised when a query refers to unknown tables or ambiguous columns."""


class SqlEvaluator:
    """Evaluates parsed SQL queries over a :class:`Database` the way SQL does."""

    def __init__(self, database: Database):
        self.database = database

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def run(self, query: ast.SqlQuery | str) -> Relation:
        """Evaluate a query (AST or SQL text) and return the result relation."""
        if isinstance(query, str):
            query = parse(query)
        return self._eval_query(query, outer_env=[])

    # ------------------------------------------------------------------
    # Query evaluation
    # ------------------------------------------------------------------
    def _eval_query(self, query: ast.SqlQuery, outer_env: Environment) -> Relation:
        if isinstance(query, ast.SelectQuery):
            return self._eval_select(query, outer_env)
        if isinstance(query, ast.SetOperation):
            left = self._eval_query(query.left, outer_env)
            right = self._eval_query(query.right, outer_env)
            return self._eval_setop(query, left, right)
        raise TypeError(f"unknown query node {type(query).__name__}")

    def _eval_setop(self, query: ast.SetOperation, left: Relation, right: Relation) -> Relation:
        if left.arity != right.arity:
            raise SqlEvaluationError("set operation requires arguments of equal arity")
        left_bag, right_bag = left.rows_bag(), right.rows_bag()
        result: Counter = Counter()
        if query.op == "UNION":
            result = Counter(left_bag)
            for row, count in right_bag.items():
                result[row] += count
            if not query.all:
                result = Counter({row: 1 for row in result})
        elif query.op == "EXCEPT":
            if query.all:
                for row, count in left_bag.items():
                    remaining = count - right_bag.get(row, 0)
                    if remaining > 0:
                        result[row] = remaining
            else:
                result = Counter({row: 1 for row in left_bag if row not in right_bag})
        elif query.op == "INTERSECT":
            if query.all:
                for row, count in left_bag.items():
                    other = right_bag.get(row, 0)
                    if other:
                        result[row] = min(count, other)
            else:
                result = Counter({row: 1 for row in left_bag if row in right_bag})
        else:
            raise SqlEvaluationError(f"unknown set operation {query.op!r}")
        return Relation.from_counter(left.attributes, result)

    def _eval_select(self, query: ast.SelectQuery, outer_env: Environment) -> Relation:
        bindings = self._table_bindings(query)
        output_attrs = self._output_attributes(query, bindings)
        counter: Counter = Counter()
        for env in self._environments(bindings, outer_env):
            if query.where is not None:
                if self._eval_condition(query.where, env) is not TRUE:
                    continue
            row = self._project(query, bindings, env)
            counter[row] += 1
        if query.distinct:
            counter = Counter({row: 1 for row in counter})
        return Relation.from_counter(output_attrs, counter)

    def _table_bindings(self, query: ast.SelectQuery) -> list[tuple[str, Relation]]:
        bindings = []
        for table_ref in query.tables:
            relation = self.database.get(table_ref.table)
            if relation is None:
                raise SqlEvaluationError(f"unknown table {table_ref.table!r}")
            bindings.append((table_ref.name(), relation))
        return bindings

    def _environments(
        self, bindings: list[tuple[str, Relation]], outer_env: Environment
    ) -> Iterator[Environment]:
        local: dict = {}
        scopes: Environment = [local, *outer_env]

        def recurse(index: int) -> Iterator[Environment]:
            if index == len(bindings):
                yield scopes
                return
            alias, relation = bindings[index]
            for row in relation.iter_rows_bag():
                local[alias] = (relation.attributes, row)
                yield from recurse(index + 1)
            local.pop(alias, None)

        yield from recurse(0)

    def _output_attributes(self, query: ast.SelectQuery, bindings) -> tuple[str, ...]:
        if query.select_star:
            attrs = []
            for alias, relation in bindings:
                attrs.extend(f"{alias}.{a}" if len(bindings) > 1 else a for a in relation.attributes)
            return tuple(attrs)
        return tuple(item.output_name() for item in query.items)

    def _project(self, query: ast.SelectQuery, bindings, env: Environment) -> tuple:
        if query.select_star:
            local = env[0]
            values = []
            for alias, _relation in bindings:
                values.extend(local[alias][1])
            return tuple(values)
        return tuple(self._eval_expr(item.expr, env) for item in query.items)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _eval_expr(self, expr: ast.SqlExpr, env: Environment) -> Value:
        if isinstance(expr, ast.SqlLiteral):
            return expr.value
        if isinstance(expr, ast.SqlNull):
            from ..datamodel.values import fresh_null

            return fresh_null()
        if isinstance(expr, ast.ColumnRef):
            return self._lookup(expr, env)
        raise TypeError(f"unknown expression {type(expr).__name__}")

    def _lookup(self, ref: ast.ColumnRef, env: Environment) -> Value:
        if ref.table is not None:
            for scope in env:
                if ref.table in scope:
                    attributes, row = scope[ref.table]
                    if ref.column not in attributes:
                        raise SqlEvaluationError(f"unknown column {ref}")
                    return row[attributes.index(ref.column)]
            raise SqlEvaluationError(f"unknown table alias {ref.table!r}")
        for scope in env:
            matches = []
            for _alias, (attributes, row) in scope.items():
                if ref.column in attributes:
                    matches.append(row[attributes.index(ref.column)])
            if len(matches) > 1:
                raise SqlEvaluationError(f"ambiguous column {ref.column!r}")
            if matches:
                return matches[0]
        raise SqlEvaluationError(f"unknown column {ref.column!r}")

    # ------------------------------------------------------------------
    # Conditions (three-valued)
    # ------------------------------------------------------------------
    def _eval_condition(self, condition: ast.SqlCondition, env: Environment) -> TruthValue:
        if isinstance(condition, ast.BoolOp):
            left = self._eval_condition(condition.left, env)
            right = self._eval_condition(condition.right, env)
            return kleene_and(left, right) if condition.op == "AND" else kleene_or(left, right)
        if isinstance(condition, ast.NotOp):
            return kleene_not(self._eval_condition(condition.operand, env))
        if isinstance(condition, ast.Comparison):
            return self._compare(
                condition.op,
                self._eval_expr(condition.left, env),
                self._eval_expr(condition.right, env),
            )
        if isinstance(condition, ast.IsNull):
            value = self._eval_expr(condition.operand, env)
            result = TRUE if is_null(value) else FALSE
            return kleene_not(result) if condition.negated else result
        if isinstance(condition, ast.ExistsSubquery):
            result = TRUE if self._eval_query(condition.subquery, env) else FALSE
            return kleene_not(result) if condition.negated else result
        if isinstance(condition, ast.InSubquery):
            return self._eval_in(condition, env)
        raise TypeError(f"unknown condition {type(condition).__name__}")

    def _eval_in(self, condition: ast.InSubquery, env: Environment) -> TruthValue:
        value = self._eval_expr(condition.operand, env)
        subresult = self._eval_query(condition.subquery, env)
        if subresult.arity != 1:
            raise SqlEvaluationError("IN subquery must return a single column")
        membership = FALSE
        for (candidate,) in subresult.iter_rows_bag():
            membership = kleene_or(membership, self._compare("=", value, candidate))
            if membership is TRUE:
                break
        return kleene_not(membership) if condition.negated else membership

    @staticmethod
    def _compare(op: str, left: Value, right: Value) -> TruthValue:
        if is_null(left) or is_null(right):
            return UNKNOWN
        try:
            if op == "=":
                outcome = left == right
            elif op == "<>":
                outcome = left != right
            elif op == "<":
                outcome = left < right
            elif op == "<=":
                outcome = left <= right
            elif op == ">":
                outcome = left > right
            elif op == ">=":
                outcome = left >= right
            else:
                raise SqlEvaluationError(f"unknown comparison operator {op!r}")
        except TypeError:
            return UNKNOWN
        return TRUE if outcome else FALSE


def run_sql(database: Database, query: str) -> Relation:
    """Parse and evaluate an SQL query the way an SQL engine would."""
    return SqlEvaluator(database).run(query)
