"""Compilation of SQL to relational algebra, in two readings.

:func:`compile_sql` is the *algebra* reading that query normalization
stores as ``NormalizedQuery.algebra``: the plan the naïve and
approximation strategies evaluate with nulls as values.  Its fragment is
``SELECT [DISTINCT] cols FROM tables WHERE conjuncts`` plus the set
operations, where a WHERE conjunct is a comparison, ``IS [NOT] NULL``,
an AND/OR/NOT combination of those, or an *uncorrelated* ``[NOT] IN
(subquery)`` / ``[NOT] EXISTS (subquery)``.  Subquery membership
compiles to a semijoin (``⋉``) and its negation to an antijoin (``▷``)
against the independently compiled subquery — which is enough to push
SQL-authored workload queries through the approximation translations of
Figure 2.  *Correlated* subqueries (ones referencing the outer query's
columns) raise a :class:`SqlCompilationError` saying so.

:func:`compile_sql_3vl` is the *three-valued* reading behind the
``sql-3vl`` strategy: a plan that ``execute_plans(condition_mode="3vl")``
evaluates exactly as :class:`~repro.sql.evaluator.SqlEvaluator` does,
with ``bag=False`` under set semantics and ``bag=True`` under bag
semantics.  It runs the same compiler and departs from the algebra
reading only where SQL and the plan could disagree:

================================  ==========================================
``x IN (sub)``                    semijoin guarded by ``const(x)`` and
                                  ``const(sub column)``: the semijoin alone
                                  would match a marked null to itself
correlated ``[NOT] EXISTS``       decorrelated when every conjunct mentioning
                                  the outer query reads ``inner.col =
                                  outer.col``: (anti)semijoin against
                                  ``ρ(π_inner(σ_{local ∧ const(inner)}(FROM)))``
                                  renamed to the outer columns — exact, as
                                  EXISTS is two-valued and a null equals
                                  nothing under 3VL
``NOT IN``                        refused: one null in the subquery must
                                  filter every row
``NOT`` over ``<``/``<=``/...     refused: on cross-type values the plan's
                                  comparison is false where SQL's is unknown
``SELECT *``, ``NULL``,           refused (the evaluator names ``*`` columns
ambiguous columns                 differently; the others raise or never
                                  compare equal there)
``EXCEPT ALL`` (set semantics);   refused: the plan's operators collapse or
``DISTINCT``, non-``ALL`` set     keep multiplicities throughout, so these
operations (bag semantics)        have no operator of their own
================================  ==========================================

A refusal is a :class:`SqlCompilationError` naming the construct; the
strategy then runs the evaluator instead, which stays the reference
semantics, and records the reason.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..algebra import ast as ra
from ..algebra.conditions import (
    And,
    Attr,
    Condition,
    Eq,
    Ge,
    Gt,
    IsConst,
    IsNull,
    Le,
    Literal,
    Lt,
    Neq,
    Not,
    Or,
)
from ..datamodel.schema import DatabaseSchema
from . import ast
from .parser import parse

__all__ = ["compile_sql", "compile_sql_3vl", "SqlCompilationError"]


class SqlCompilationError(ValueError):
    """Raised when a query uses features outside the compilable fragment."""


_COMPARISONS = {"=": Eq, "<>": Neq, "<": Lt, "<=": Le, ">": Gt, ">=": Ge}
_ORDER_COMPARISONS = frozenset({"<", "<=", ">", ">="})


def compile_sql(query: ast.SqlQuery | str, schema: DatabaseSchema) -> ra.Query:
    """Compile an SQL query (uncorrelated subqueries allowed) to algebra."""
    if isinstance(query, str):
        query = parse(query)
    return _compile_query(query, _Lowering(schema))


def compile_sql_3vl(
    query: ast.SqlQuery | str, schema: DatabaseSchema, *, bag: bool = False
) -> ra.Query:
    """The plan computing exactly SQL's answer to ``query``.

    Evaluate it with ``condition_mode="3vl"`` and the same ``bag`` flag.
    Raises :class:`SqlCompilationError` with the reason when the query
    has no plan provably equal to the SQL evaluator's answer.
    """
    if isinstance(query, str):
        query = parse(query)
    plan = _compile_query(query, _Lowering(schema, three_valued=True, bag=bag))
    try:
        plan.output_attributes(schema)
    except ValueError as exc:  # e.g. a set operation over unequal arities
        raise SqlCompilationError(str(exc)) from exc
    return plan


@dataclass(frozen=True)
class _Lowering:
    """Which reading is being compiled, and against which schema."""

    schema: DatabaseSchema
    three_valued: bool = False
    bag: bool = False

    def refuse_if(self, condition: bool, construct: str) -> None:
        """Refuse ``construct`` when the three-valued reading cannot make it exact."""
        if self.three_valued and condition:
            raise SqlCompilationError(f"no exact three-valued plan for {construct}")


class _Scope:
    """The columns one SELECT's FROM clause brings into scope."""

    def __init__(self) -> None:
        self.aliases: set[str] = set()
        self.qualified: dict[tuple[str, str], str] = {}
        #: Unqualified name → plan attribute; ``None`` when several FROM
        #: items have the column, so an unqualified reference is ambiguous.
        self.unqualified: dict[str, str | None] = {}

    def add(self, alias: str, attributes) -> None:
        self.aliases.add(alias)
        for attribute in attributes:
            name = f"{alias}.{attribute}"
            self.qualified[(alias, attribute)] = name
            self.unqualified[attribute] = None if attribute in self.unqualified else name

    def binds(self, ref: ast.ColumnRef) -> bool:
        """Whether SQL name resolution looks ``ref`` up in this scope."""
        if ref.table is not None:
            return ref.table in self.aliases
        return ref.column in self.unqualified

    def resolve(self, ref: ast.ColumnRef) -> str:
        # A qualified reference with an unknown alias must error, never
        # fall back to a same-named unqualified column: inside a subquery
        # it is how a correlated outer reference is detected.
        if ref.table is not None:
            name = self.qualified.get((ref.table, ref.column))
        else:
            name = self.unqualified.get(ref.column)
            if name is None and ref.column in self.unqualified:
                raise SqlCompilationError(
                    f"ambiguous column {ref.column!r}: several FROM items have it"
                )
        if name is None:
            raise SqlCompilationError(f"unknown column {ref}")
        return name


def _compile_query(query: ast.SqlQuery, lowering: _Lowering) -> ra.Query:
    if isinstance(query, ast.SetOperation):
        lowering.refuse_if(
            lowering.bag and not query.all, f"{query.op} without ALL under bag semantics"
        )
        lowering.refuse_if(
            not lowering.bag and query.all and query.op == "EXCEPT",
            "EXCEPT ALL under set semantics",
        )
        left = _compile_query(query.left, lowering)
        right = _compile_query(query.right, lowering)
        operator = {"UNION": ra.Union, "EXCEPT": ra.Difference, "INTERSECT": ra.Intersection}[
            query.op
        ]
        return operator(left, right)
    if isinstance(query, ast.SelectQuery):
        return _compile_select(query, lowering)
    raise SqlCompilationError(f"cannot compile query node {type(query).__name__}")


def _compile_select(query: ast.SelectQuery, lowering: _Lowering) -> ra.Query:
    lowering.refuse_if(
        query.select_star, "SELECT * (the SQL evaluator names its columns differently)"
    )
    lowering.refuse_if(query.distinct and lowering.bag, "DISTINCT under bag semantics")
    plan, scope = _compile_from(query, lowering)
    if query.where is not None:
        plan = _apply_where(plan, *_split_where(query.where), scope, lowering)

    if query.select_star:
        output_columns = sorted(scope.qualified.values())
        output_names = output_columns
    else:
        output_columns = []
        output_names = []
        for item in query.items:
            if not isinstance(item.expr, ast.ColumnRef):
                raise SqlCompilationError(
                    "only column references are supported in SELECT lists"
                )
            output_columns.append(scope.resolve(item.expr))
            output_names.append(item.output_name())
    lowering.refuse_if(
        len(set(output_columns)) != len(output_columns)
        or len(set(output_names)) != len(output_names),
        "a SELECT list repeating a column or an output name",
    )
    plan = ra.Projection(plan, output_columns)
    if output_names != output_columns and len(set(output_names)) == len(output_names):
        plan = ra.Rename(plan, dict(zip(output_columns, output_names)))
    return plan


def _compile_from(query: ast.SelectQuery, lowering: _Lowering) -> tuple[ra.Query, _Scope]:
    """FROM: product of the tables, columns renamed to ``alias.column``."""
    plan: ra.Query | None = None
    scope = _Scope()
    for table_ref in query.tables:
        if table_ref.table not in lowering.schema:
            raise SqlCompilationError(f"unknown table {table_ref.table!r}")
        alias = table_ref.name()
        lowering.refuse_if(alias in scope.aliases, f"the repeated FROM alias {alias!r}")
        attributes = lowering.schema[table_ref.table].attributes
        renaming = {a: f"{alias}.{a}" for a in attributes}
        node: ra.Query = ra.Rename(ra.RelationRef(table_ref.table), renaming)
        plan = node if plan is None else ra.Product(plan, node)
        scope.add(alias, attributes)
    if plan is None:
        raise SqlCompilationError("a SELECT needs at least one table")
    return plan, scope


def _apply_where(
    plan: ra.Query,
    plain: list[ast.SqlCondition],
    subqueries: list[tuple[ast.SqlCondition, bool]],
    scope: _Scope,
    lowering: _Lowering,
) -> ra.Query:
    # One selection per top-level conjunct rather than one big ∧: the
    # split shape is what the plan optimizer's pushdown rules start
    # from, and even unoptimized evaluation filters earlier this way.
    # [NOT] IN/[NOT] EXISTS conjuncts become semijoins/antijoins and
    # are applied after the plain selections, so the (anti)semijoin
    # probes the already-filtered rows.
    from ..algebra.optimize import split_conjuncts

    for part in plain:
        condition = _compile_condition(part, scope, lowering)
        for conjunct in reversed(split_conjuncts(condition)):
            plan = ra.Selection(plan, conjunct)
    for node, negated in subqueries:
        plan = _apply_subquery(plan, node, negated, scope, lowering)
    return plan


def _split_where(
    condition: ast.SqlCondition,
) -> tuple[list[ast.SqlCondition], list[tuple[ast.SqlCondition, bool]]]:
    """Split a WHERE clause into plain conjuncts and subquery conjuncts.

    Only top-level AND structure is split; each subquery conjunct is
    returned with its effective negation parity (its own ``negated``
    flag XOR any stack of enclosing ``NOT`` wrappers).
    """
    plain: list[ast.SqlCondition] = []
    subqueries: list[tuple[ast.SqlCondition, bool]] = []

    def visit(cond: ast.SqlCondition) -> None:
        if isinstance(cond, ast.BoolOp) and cond.op == "AND":
            visit(cond.left)
            visit(cond.right)
            return
        core, negated = cond, False
        while isinstance(core, ast.NotOp):
            negated = not negated
            core = core.operand
        if isinstance(core, (ast.InSubquery, ast.ExistsSubquery)):
            subqueries.append((core, negated != core.negated))
        else:
            plain.append(cond)

    visit(condition)
    return plain, subqueries


def _apply_subquery(
    plan: ra.Query,
    node: ast.SqlCondition,
    negated: bool,
    scope: _Scope,
    lowering: _Lowering,
) -> ra.Query:
    """Apply a ``[NOT] IN``/``[NOT] EXISTS`` conjunct.

    Uncorrelated subqueries are compiled *standalone* against the
    database schema: membership becomes a semijoin on the (renamed)
    subquery column, ``EXISTS`` becomes a semijoin against the
    subquery's nullary projection (zero shared attributes: the probe
    only asks "is it non-empty?"), and the negated forms use the
    antijoin.  The semijoin keeps the outer rows' multiplicities,
    matching SQL.  The three-valued reading also decorrelates
    ``EXISTS`` (:func:`_exists_probe`).
    """
    operator = ra.AntiSemiJoin if negated else ra.SemiJoin
    if isinstance(node, ast.ExistsSubquery):
        if lowering.three_valued and isinstance(node.subquery, ast.SelectQuery):
            return operator(plan, _exists_probe(node.subquery, scope, lowering))
        return operator(plan, ra.Projection(_compile_subquery(node, lowering), ()))
    lowering.refuse_if(negated, "NOT IN (one null in the subquery must filter every row)")
    sub = _compile_subquery(node, lowering)
    if not isinstance(node.operand, ast.ColumnRef):
        raise SqlCompilationError(
            "the left side of [NOT] IN must be a column reference"
        )
    column = scope.resolve(node.operand)
    sub_attrs = sub.output_attributes(lowering.schema)
    if len(sub_attrs) != 1:
        raise SqlCompilationError(
            f"the subquery of {node} must return exactly one column, "
            f"got {len(sub_attrs)}"
        )
    if lowering.three_valued:
        plan = ra.Selection(plan, IsConst(Attr(column)))
        sub = ra.Selection(sub, IsConst(Attr(sub_attrs[0])))
    if sub_attrs[0] != column:
        sub = ra.Rename(sub, {sub_attrs[0]: column})
    return operator(plan, sub)


def _compile_subquery(node, lowering: _Lowering) -> ra.Query:
    try:
        return _compile_query(node.subquery, lowering)
    except SqlCompilationError as exc:
        hint = "" if lowering.three_valued else (
            ".  Correlated subqueries — ones referencing the outer query's "
            "columns — are outside the compilable fragment; use the "
            "SQL-semantics evaluator or the algebra builder instead"
        )
        raise SqlCompilationError(
            f"cannot compile the subquery of {node}: {exc}{hint}"
        ) from exc


def _exists_probe(sub: ast.SelectQuery, outer: _Scope, lowering: _Lowering) -> ra.Query:
    """The relation an outer row must (not) meet for ``[NOT] EXISTS (sub)``.

    Each conjunct of ``sub``'s WHERE that mentions the outer query must
    read ``inner.col = outer.col``.  The probe is the subquery's FROM
    filtered by its local conjuncts and ``const()`` of the correlated
    inner columns, projected on those columns and renamed to the outer
    ones, so the (anti)semijoin matches exactly the outer rows for which
    some inner row makes every correlation equality true.  An outer row
    with a null there meets no probe row, as SQL's comparison would be
    unknown.  Without correlated conjuncts this is the nullary
    non-emptiness probe of the uncorrelated case.  The SELECT list only
    has to be valid: EXISTS never looks at it.
    """
    plan, inner = _compile_from(sub, lowering)
    lowering.refuse_if(
        bool(inner.aliases & outer.aliases), "a subquery alias shadowing an outer one"
    )
    if not sub.select_star:
        names = [item.output_name() for item in sub.items]
        lowering.refuse_if(
            len(set(names)) != len(names), "a SELECT list repeating an output name"
        )
        for item in sub.items:
            if isinstance(item.expr, ast.ColumnRef):
                (inner if inner.binds(item.expr) else outer).resolve(item.expr)
    plain, subqueries = _split_where(sub.where) if sub.where is not None else ([], [])
    local: list[ast.SqlCondition] = []
    pairs: dict[str, str] = {}
    for part in plain:
        if all(inner.binds(ref) for ref in _column_refs(part)):
            local.append(part)
            continue
        inner_column, outer_column = _correlation(part, inner, outer)
        lowering.refuse_if(
            inner_column in pairs or outer_column in pairs.values(),
            f"a column correlated twice ({part})",
        )
        pairs[inner_column] = outer_column
    plan = _apply_where(plan, local, subqueries, inner, lowering)
    for column in pairs:
        plan = ra.Selection(plan, IsConst(Attr(column)))
    plan = ra.Projection(plan, tuple(pairs))
    return ra.Rename(plan, pairs) if pairs else plan


def _correlation(part: ast.SqlCondition, inner: _Scope, outer: _Scope) -> tuple[str, str]:
    """``(inner column, outer column)`` of a conjunct ``inner.col = outer.col``."""
    if (
        isinstance(part, ast.Comparison)
        and part.op == "="
        and isinstance(part.left, ast.ColumnRef)
        and isinstance(part.right, ast.ColumnRef)
    ):
        for mine, theirs in ((part.left, part.right), (part.right, part.left)):
            if inner.binds(mine) and not inner.binds(theirs):
                return inner.resolve(mine), outer.resolve(theirs)
    raise SqlCompilationError(
        f"no exact three-valued plan for the correlated conjunct {part} "
        "(only inner.column = outer.column is decorrelated)"
    )


def _column_refs(condition: ast.SqlCondition) -> list[ast.ColumnRef]:
    """The column references of a subquery-free condition."""
    if isinstance(condition, ast.BoolOp):
        return _column_refs(condition.left) + _column_refs(condition.right)
    if isinstance(condition, ast.NotOp):
        return _column_refs(condition.operand)
    if isinstance(condition, ast.Comparison):
        operands = [condition.left, condition.right]
    elif isinstance(condition, ast.IsNull):
        operands = [condition.operand]
    else:
        operands = []
    return [operand for operand in operands if isinstance(operand, ast.ColumnRef)]


def _has_order_comparison(condition: ast.SqlCondition) -> bool:
    if isinstance(condition, ast.BoolOp):
        return _has_order_comparison(condition.left) or _has_order_comparison(condition.right)
    if isinstance(condition, ast.NotOp):
        return _has_order_comparison(condition.operand)
    return isinstance(condition, ast.Comparison) and condition.op in _ORDER_COMPARISONS


def _compile_expr(expr: ast.SqlExpr, scope: _Scope):
    if isinstance(expr, ast.ColumnRef):
        return Attr(scope.resolve(expr))
    if isinstance(expr, ast.SqlLiteral):
        return Literal(expr.value)
    raise SqlCompilationError(f"unsupported expression {type(expr).__name__}")


def _compile_condition(
    condition: ast.SqlCondition, scope: _Scope, lowering: _Lowering
) -> Condition:
    if isinstance(condition, ast.BoolOp):
        left = _compile_condition(condition.left, scope, lowering)
        right = _compile_condition(condition.right, scope, lowering)
        return And(left, right) if condition.op == "AND" else Or(left, right)
    if isinstance(condition, ast.NotOp):
        lowering.refuse_if(
            _has_order_comparison(condition.operand),
            f"{condition}: on cross-type values the plan's order comparison "
            "is false where SQL's is unknown, and NOT tells them apart",
        )
        return Not(_compile_condition(condition.operand, scope, lowering))
    if isinstance(condition, ast.Comparison):
        comparison = _COMPARISONS.get(condition.op)
        if comparison is None:
            raise SqlCompilationError(f"unsupported comparison {condition.op!r}")
        return comparison(
            _compile_expr(condition.left, scope),
            _compile_expr(condition.right, scope),
        )
    if isinstance(condition, ast.IsNull):
        term = _compile_expr(condition.operand, scope)
        return IsConst(term) if condition.negated else IsNull(term)
    if isinstance(condition, (ast.InSubquery, ast.ExistsSubquery)):
        raise SqlCompilationError(
            f"{condition} is only compilable as a top-level WHERE "
            "conjunct (optionally negated); nested under OR it has no "
            "semijoin reading — use the SQL-semantics evaluator instead"
        )
    raise SqlCompilationError(
        f"{type(condition).__name__} is outside the compilable fragment "
        "(use the SQL evaluator or the algebra builder instead)"
    )
