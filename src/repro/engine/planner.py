"""The ``strategy="auto"`` planner: pick a strategy from the capability table.

Theorem 4.4 is an API fact, not just a theory fact: on the CQ/UCQ/Pos∀G
fragments naïve evaluation *is* the certain answers, so the engine can
pick the right strategy per query instead of making the caller guess.
:func:`choose_strategy` consults the query's fragment classification
(:attr:`~repro.engine.frontend.NormalizedQuery.fragment`, computed for
calculus, algebra and compiled-SQL inputs alike) and the declarative
capability table (:func:`repro.engine.registry.available_strategies`
with ``verbose=True``) and returns a :class:`PlanDecision`, which the
engine records under ``QueryResult.metadata["plan"]``.

The decision table (first applicable row wins)::

    condition                                    chosen          guarantee
    ------------------------------------------   -------------   ------------------
    fragment ∈ exact_on(naive)  [CQ/UCQ/Pos∀G]   naive           exact (Thm 4.4)
    database is complete                         naive           exact (trivially)
    bag semantics                                naive/sql-3vl   none (best effort)
    a sound polynomial strategy applies          approx-g16      sound (Fig. 2b)
    valuation-space estimate ≤ exact budget      exact-certain   exact (cert⊥)
    otherwise                                    naive/sql-3vl   none (best effort)

Applicability respects each strategy's declared ``plan_ops``: the
Figure 2 translations are only defined on the core operators, so a plan
containing e.g. division skips them and falls through to the next row
instead of crashing mid-translation.

Rows three through six only differ in *which guarantee is affordable*:
the sound approximation needs an algebra plan, so e.g. a calculus query
with negation falls through to exact certain answers — but those
enumerate valuations, so they are only picked while the valuation space
they would enumerate (counted by
:func:`repro.incomplete.certain.valuation_space`) stays under a budget
(default ``10**4``; override per call or with the
``REPRO_AUTO_EXACT_BUDGET`` environment variable).

``auto`` is resolved *before* dispatch: the engine evaluates the chosen
strategy through its ordinary path, so the result — including its cache
key — is identical to naming the strategy explicitly, and an ``auto``
evaluation shares cache entries with the explicit one.  The randomized
harness in ``tests/test_planner.py`` pins this tuple-for-tuple.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Mapping

from ..algebra.ast import walk as _walk_plan
from ..datamodel.database import Database
from ..incomplete.certain import valuation_space
from .capabilities import StrategyCapabilities
from .errors import StrategyNotApplicableError
from .frontend import NormalizedQuery
from .registry import available_strategies

__all__ = [
    "PlanDecision",
    "choose_strategy",
    "unsupported_plan_ops",
    "DEFAULT_EXACT_BUDGET",
    "default_exact_budget",
]

#: Reserved strategy name that triggers planning in the engine façade.
AUTO = "auto"

#: Largest valuation space for which ``exact-certain`` is an acceptable
#: automatic choice.  The space is the one the strategy enumerates: the
#: nulls the query reads, valued into the known constants plus fresh
#: ones taken in first-use order (``Σ_j C(k,j)·c^(k−j)·Bell(j)`` for
#: ``k`` nulls and ``c`` known constants without order comparisons).
DEFAULT_EXACT_BUDGET = 10_000


def default_exact_budget() -> int:
    """The budget used when no explicit one is configured.

    Read from ``REPRO_AUTO_EXACT_BUDGET`` at *call* time, so setting the
    environment variable after import (or in a test via monkeypatch)
    takes effect.
    """
    return int(os.environ.get("REPRO_AUTO_EXACT_BUDGET", DEFAULT_EXACT_BUDGET))


@dataclass(frozen=True)
class PlanDecision:
    """Why ``strategy="auto"`` picked what it picked.

    ``strategy`` is the canonical name the engine then evaluates;
    ``guarantee`` is the certainty contract of the choice (``"exact"``,
    ``"sound"`` or ``"none"``); ``considered`` records the candidates
    that were inspected and why each non-chosen one was passed over.
    """

    strategy: str
    reason: str
    fragment: str | None
    semantics: str
    guarantee: str = "none"
    considered: tuple[tuple[str, str], ...] = ()
    #: Numeric cost estimates the decision was based on, as
    #: ``(label, value)`` pairs — e.g. the statistics-derived C_out cost
    #: of each Figure 2 translation pair, or the valuation-space size
    #: behind an ``exact-certain`` (non-)choice.  Empty when the decision
    #: needed no numbers (fragment exactness, completeness, bag fallback).
    estimates: tuple[tuple[str, float], ...] = ()

    def as_metadata(self) -> dict[str, Any]:
        """The rendering stored under ``QueryResult.metadata["plan"]``."""
        return {
            "strategy": self.strategy,
            "reason": self.reason,
            "fragment": self.fragment,
            "semantics": self.semantics,
            "guarantee": self.guarantee,
            "considered": [list(pair) for pair in self.considered],
            "estimates": {name: value for name, value in self.estimates},
        }


def _approximation_costs(
    normalized: NormalizedQuery, database: Database
) -> dict[str, float] | None:
    """Statistics-derived C_out costs of the two Figure 2 translations.

    Translates the algebra plan both ways and sums
    :func:`repro.algebra.stats.estimate_cost` over each pair's members
    (Qt+Qf for Figure 2a, Q+ and Q? for Figure 2b).  Returns
    ``None`` when the plan cannot be translated or estimated — the
    caller then falls back to the static cost hints.
    """
    if normalized.algebra is None:
        return None
    try:
        from ..algebra.stats import Stats, estimate_cost
        from ..approx.guagliardo16 import translate_guagliardo16
        from ..approx.libkin16 import translate_libkin16

        schema = database.schema()
        stats = Stats(database)
        g_pair = translate_guagliardo16(normalized.algebra, schema)
        l_pair = translate_libkin16(normalized.algebra, schema)
        return {
            "approx-guagliardo16": (
                estimate_cost(g_pair.certain, schema, stats)
                + estimate_cost(g_pair.possible, schema, stats)
            ),
            "approx-libkin16": (
                estimate_cost(l_pair.certainly_true, schema, stats)
                + estimate_cost(l_pair.certainly_false, schema, stats)
            ),
        }
    except Exception:  # translation/estimation failure must never block planning
        return None


#: Reported in place of a larger valuation count: it is over any budget.
_OVER_ANY_BUDGET = 10**18


def _estimated_valuations(normalized: NormalizedQuery, database: Database) -> int:
    """The number of valuations ``exact-certain`` would enumerate.

    The same reduced space the strategy enumerates
    (:func:`repro.incomplete.certain.valuation_space`), capped at
    :data:`_OVER_ANY_BUDGET`.  The pool holds a fresh constant per null,
    so every valued null after the first has at least two images: past
    61 of them the count exceeds ``2**60`` and its closed form is not
    worked out.
    """
    query = normalized.algebra if normalized.algebra is not None else normalized.fo
    space = valuation_space(query, database)
    if len(space.nulls) > 61:
        return _OVER_ANY_BUDGET
    return min(space.size(database), _OVER_ANY_BUDGET)


def unsupported_plan_ops(
    caps: StrategyCapabilities, normalized: NormalizedQuery, semantics: str
) -> list[str]:
    """The operators of the query's plan outside the declared ``plan_ops``.

    The one gate on ``plan_ops``: the planner skips a strategy for which
    this is non-empty, and the engine refuses an explicitly named one
    with the skippable :class:`~repro.engine.errors.StrategyNotApplicableError`
    before it runs (SQL-compiled ``[NOT] IN``/``[NOT] EXISTS`` plans
    land here: their semijoins/antijoins have no Figure 2 or c-table
    reading).  Empty when the strategy declares no restriction, the
    query has no algebra plan, or the query also offers a non-algebra
    form the strategy consumes, which it can take instead.
    """
    if caps.plan_ops is None or normalized.algebra is None:
        return []
    used = {type(node).__name__ for node in _walk_plan(normalized.algebra)}
    unsupported = sorted(used - caps.plan_ops)
    if unsupported and any(
        form != "algebra" and form in normalized.forms()
        for form in caps.requires_for(semantics)
    ):
        return []
    return unsupported


def choose_strategy(
    normalized: NormalizedQuery,
    database: Database,
    *,
    semantics: str,
    exact_budget: int | None = None,
) -> PlanDecision:
    """Pick an evaluation strategy for one (query, database) call.

    Consults only the declarative capability table — never strategy
    code — so the decision is explainable (``PlanDecision.considered``)
    and testable against ``available_strategies(verbose=True)``.

    Raises :class:`~repro.engine.errors.StrategyNotApplicableError` when
    no registered strategy can consume the query's lowered forms at all.
    """
    budget = default_exact_budget() if exact_budget is None else exact_budget
    table: Mapping[str, StrategyCapabilities] = available_strategies(verbose=True)
    forms = normalized.forms()
    fragment = normalized.fragment
    considered: list[tuple[str, str]] = []

    def applicable(name: str) -> bool:
        caps = table.get(name)
        if caps is None:
            considered.append((name, "not registered"))
            return False
        if not caps.applicable(forms, semantics):
            considered.append(
                (
                    name,
                    f"needs {'/'.join(caps.requires_for(semantics)) or '?'} "
                    f"under {semantics} semantics; query offers "
                    f"{'/'.join(forms) or 'nothing'}",
                )
            )
            return False
        unsupported = unsupported_plan_ops(caps, normalized, semantics)
        if unsupported:
            considered.append((name, f"plan uses unsupported operators {unsupported}"))
            return False
        return True

    estimates: list[tuple[str, float]] = []

    def decision(name: str, reason: str, guarantee: str) -> PlanDecision:
        deduped = tuple(dict.fromkeys(considered))  # keep first occurrence
        return PlanDecision(
            strategy=name,
            reason=reason,
            fragment=fragment,
            semantics=semantics,
            guarantee=guarantee,
            considered=deduped,
            estimates=tuple(dict.fromkeys(estimates)),
        )

    # 1. The Theorem 4.4 fragments: naïve evaluation is exact.  Checked
    #    before completeness, which costs a data scan — on these
    #    fragments the choice is naïve either way.
    naive_caps = table.get("naive")
    if naive_caps is not None and naive_caps.exact_on_fragment(fragment):
        if applicable("naive"):
            return decision(
                "naive",
                f"naïve evaluation is exact on the {fragment} fragment "
                "(Theorem 4.4, CWA)",
                "exact",
            )
    elif database.is_complete() and applicable("naive"):
        # 2. Complete database: every strategy is exact; take the
        #    cheapest literal evaluator.  (Relation.is_complete
        #    short-circuits at the first null, and the fragment check
        #    above already decided for the Theorem 4.4 queries, so this
        #    scan is cheap on the common paths.)
        return decision(
            "naive", "complete database: every strategy is exact", "exact"
        )
    elif naive_caps is not None:
        considered.append(
            (
                "naive",
                f"fragment {fragment or 'unknown'} is outside "
                f"{'/'.join(sorted(naive_caps.exact_on))}: no exactness "
                "guarantee",
            )
        )

    # 3. Bag semantics: no approximation or exact strategy speaks bags;
    #    fall back to a literal evaluator, guarantee-free.
    if semantics == "bag":
        for name in ("naive", "sql-3vl"):
            if applicable(name):
                return decision(
                    name,
                    "bag semantics: certainty-bounded strategies are "
                    "set-only; best-effort literal evaluation",
                    "none",
                )
        raise StrategyNotApplicableError(
            "strategy 'auto' found no bag-capable strategy for this query; "
            f"candidates rejected: {considered}"
        )

    # 4. A sound approximation, picked by estimated cost.  Both Figure 2
    #    rewritings are sound; with statistics available their translated
    #    pairs get numeric C_out estimates and the cheaper one wins.
    #    Ties — and estimation failures — resolve to Figure 2b, whose
    #    static cost hint is polynomial (Qf of Figure 2a materialises
    #    Dom^k complements, so it only wins when the estimates say its
    #    σ-pruned Dom side is genuinely smaller).
    g_ok = applicable("approx-guagliardo16")
    l_ok = applicable("approx-libkin16")
    if g_ok or l_ok:
        costs = _approximation_costs(normalized, database) if (g_ok and l_ok) else None
        if costs is not None:
            estimates.extend(sorted(costs.items()))
            g_cost = costs["approx-guagliardo16"]
            l_cost = costs["approx-libkin16"]
            if l_cost < g_cost:
                considered.append(
                    (
                        "approx-guagliardo16",
                        f"estimated cost {g_cost:.0f} > Figure 2a's {l_cost:.0f}",
                    )
                )
                return decision(
                    "approx-libkin16",
                    "no exactness guarantee for naïve evaluation on this "
                    f"query; (Qt, Qf) is sound and its estimated cost "
                    f"{l_cost:.0f} undercuts (Q+, Q?)'s {g_cost:.0f} "
                    "(Figure 2a)",
                    "sound",
                )
            if g_ok:
                if l_ok:
                    considered.append(
                        (
                            "approx-libkin16",
                            f"estimated cost {l_cost:.0f} ≥ Figure 2b's "
                            f"{g_cost:.0f}",
                        )
                    )
                return decision(
                    "approx-guagliardo16",
                    "no exactness guarantee for naïve evaluation on this "
                    f"query; (Q+, Q?) is sound and its estimated cost "
                    f"{g_cost:.0f} is no worse than (Qt, Qf)'s "
                    f"{l_cost:.0f} (Figure 2b)",
                    "sound",
                )
        if g_ok:
            return decision(
                "approx-guagliardo16",
                "no exactness guarantee for naïve evaluation on this query; "
                "(Q+, Q?) is sound with polynomial overhead (Figure 2b)",
                "sound",
            )

    # 5. Exact certain answers, affordable only under a size budget.
    if applicable("exact-certain"):
        estimate = _estimated_valuations(normalized, database)
        estimates.append(("exact-certain-valuations", float(estimate)))
        if estimate <= budget:
            return decision(
                "exact-certain",
                f"no algebra plan for the sound approximation; the "
                f"valuation-space estimate {estimate} fits the exact "
                f"budget {budget}",
                "exact",
            )
        considered.append(
            (
                "exact-certain",
                f"valuation-space estimate {estimate} exceeds the exact "
                f"budget {budget}",
            )
        )

    # 6. Best effort: answer the query even without a guarantee.
    for name in ("naive", "sql-3vl"):
        if applicable(name):
            return decision(
                name,
                "no certainty-bounded strategy applies within budget; "
                "best-effort literal evaluation",
                "none",
            )
    raise StrategyNotApplicableError(
        "strategy 'auto' found no applicable strategy for this query; "
        f"candidates rejected: {considered}"
    )
