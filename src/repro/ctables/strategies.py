"""The four c-table approximation strategies of [36] (Section 4.2).

All four algorithms evaluate the query conditionally over c-tables and
differ only in *when* conditions are grounded (reduced to t/f/u) and
whether forced equalities are propagated into the tuple values:

* **Eager** (``Eval_e``): conditions are grounded immediately after each
  operator.
* **Semi-eager** (``Eval_s``): like eager, but forced equalities are
  propagated first — e.g. ⟨⊥₂, ⊥₁=c ∧ ⊥₁=⊥₂⟩ becomes ⟨c, u⟩ rather than
  the less informative ⟨⊥₂, u⟩.
* **Lazy** (``Eval_ℓ``): propagation and grounding only on the result of
  each difference operator; everything else keeps exact conditions.
* **Aware** (``Eval_a``): grounding postponed to the very end, on the
  (locally simplified) conditions.

Every strategy has correctness guarantees (Theorem 4.9):
``Eval⋆_t(Q, D) ⊆ cert⊥(Q, D)``, and the eager strategy coincides with
the Figure 2b translation: ``Q+(D) = Eval_e,t(Q, D)`` and
``Q?(D) = Eval_e,p(Q, D)`` — checked in the tests and in experiment E7.

This module is the low-level layer under ``Engine.evaluate(query, db,
strategy="ctables")`` (:mod:`repro.engine`): the pipeline alone,
without the engine's cache, options, annotations or metadata.  The
strategy, the pipeline's own tests and several experiments call it
directly; everything else should go through the engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..algebra import ast as ra
from ..datamodel.database import Database
from ..datamodel.relation import Relation
from ..mvl.truthvalues import FALSE, TRUE, UNKNOWN
from .condition import CtOpaque, CtTrue, forced_equalities, ground
from .ctable import ConditionalDatabase, CTable, CTuple
from .evaluation import ConditionalEvaluator

__all__ = [
    "StrategyResult",
    "eager_evaluate",
    "semi_eager_evaluate",
    "lazy_evaluate",
    "aware_evaluate",
    "STRATEGIES",
    "run_strategy",
]


@dataclass(frozen=True)
class StrategyResult:
    """The outcome of one strategy: the final c-table and the two answer sets."""

    strategy: str
    ctable: CTable
    certain: Relation
    possible: Relation


# ----------------------------------------------------------------------
# Post-processing hooks
# ----------------------------------------------------------------------
def _ground_ctuple(ctuple: CTuple, *, propagate: bool) -> CTuple | None:
    """Ground one c-tuple; None means the c-tuple is dropped (condition f)."""
    condition = ctuple.condition
    values = ctuple.values
    if propagate:
        bindings = forced_equalities(condition)
        if bindings:
            values = tuple(bindings.get(v, v) for v in values)
    truth = ground(condition)
    if truth is FALSE:
        return None
    if truth is TRUE:
        return CTuple(values, CtTrue())
    return CTuple(values, CtOpaque("u"))


def _ground_table(table: CTable, *, propagate: bool) -> CTable:
    grounded = []
    for ctuple in table:
        result = _ground_ctuple(ctuple, propagate=propagate)
        if result is not None:
            grounded.append(result)
    return table.with_ctuples(grounded)


def _eager_hook(table: CTable, operator: str) -> CTable:
    return _ground_table(table, propagate=False)


def _semi_eager_hook(table: CTable, operator: str) -> CTable:
    return _ground_table(table, propagate=True)


def _lazy_hook(table: CTable, operator: str) -> CTable:
    if operator == "Difference":
        return _ground_table(table, propagate=True)
    return table


def _aware_hook(table: CTable, operator: str) -> CTable:
    return table


_HOOKS = {
    "eager": _eager_hook,
    "semi_eager": _semi_eager_hook,
    "lazy": _lazy_hook,
    "aware": _aware_hook,
}

#: The strategy names, in increasing order of answer-set precision.
STRATEGIES = ("eager", "semi_eager", "lazy", "aware")


def run_strategy(strategy: str, query: ra.Query, database: Database) -> StrategyResult:
    """Run one of the four strategies on an ordinary database.

    The database is first lifted to a conditional database with all
    conditions ``t``, as in [36].
    """
    try:
        hook = _HOOKS[strategy]
    except KeyError:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}") from None
    conditional = ConditionalDatabase.from_database(database)
    evaluator = ConditionalEvaluator(post_process=hook)
    table = evaluator.evaluate(query, conditional)
    return StrategyResult(
        strategy=strategy,
        ctable=table,
        certain=table.certain_rows().distinct(),
        possible=table.possible_rows().distinct(),
    )


def eager_evaluate(query: ra.Query, database: Database) -> StrategyResult:
    """``Eval_e``: ground after every operator."""
    return run_strategy("eager", query, database)


def semi_eager_evaluate(query: ra.Query, database: Database) -> StrategyResult:
    """``Eval_s``: propagate forced equalities, then ground, after every operator."""
    return run_strategy("semi_eager", query, database)


def lazy_evaluate(query: ra.Query, database: Database) -> StrategyResult:
    """``Eval_ℓ``: propagate and ground only after difference operators."""
    return run_strategy("lazy", query, database)


def aware_evaluate(query: ra.Query, database: Database) -> StrategyResult:
    """``Eval_a``: keep exact (locally simplified) conditions until the end."""
    return run_strategy("aware", query, database)
