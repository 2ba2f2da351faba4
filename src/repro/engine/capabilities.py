"""The declarative capability contract of an evaluation strategy.

One :class:`StrategyCapabilities` record replaces the per-strategy
booleans that used to be scattered across the engine (the
``supported_semantics`` tuple, the ``supports_optimize`` flag) and the
sharding planner's hardcoded operator allowlists.  Everything the engine
needs to *decide* on behalf of a strategy — which semantics it honours,
which query forms it consumes, on which fragments its answer is exact,
whether its answers are sound/complete bounds on the certain answers,
how it distributes over shards, how expensive it is — lives in this one
frozen record, so the ``strategy="auto"`` planner
(:mod:`repro.engine.planner`), the sharded evaluator
(:mod:`repro.sharding.evaluate`) and the introspection surface
(``available_strategies(verbose=True)``, ``Engine.describe()``) all read
the same declaration instead of each keeping their own table.

The record is *declarative*: plain strings and frozensets only, no
callables and no references to strategy code.  Operators are named by
their :mod:`repro.algebra.ast` class names, which keeps a capability
record printable, picklable, and comparable in tests.  How a sharded
run is merged is not declared here: the merge unions the shards'
relations and hands the union to the strategy's own
:meth:`~repro.engine.registry.EvaluationStrategy.finish`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any

__all__ = [
    "StrategyCapabilities",
    "EXACT_FRAGMENTS_CWA",
]

#: The fragments of Theorem 4.4 on which naïve evaluation computes the
#: certain answers exactly (under the closed-world assumption): unions of
#: conjunctive queries and positive formulae with universally guarded
#: quantification.  ``CQ ⊆ UCQ ⊆ Pos∀G`` as classified by
#: :func:`repro.calculus.fragments.classify` and
#: :func:`repro.algebra.fragments.classify_plan`.
EXACT_FRAGMENTS_CWA = frozenset({"CQ", "UCQ", "Pos∀G"})


@dataclass(frozen=True)
class StrategyCapabilities:
    """What one evaluation strategy declares about itself.

    * ``semantics`` — which of ``"set"`` / ``"bag"`` the strategy honours.
    * ``requires`` — the lowered query forms it can consume, any-of
      (``"sql"`` / ``"algebra"`` / ``"calculus"``; see
      :meth:`repro.engine.frontend.NormalizedQuery.forms`).  Empty means
      "unknown", which the planner treats as not auto-selectable.
    * ``bag_requires`` — override of ``requires`` under bag semantics
      (e.g. naïve bag evaluation needs an algebra plan; ``None`` means
      the same forms as ``requires``).
    * ``exact_on`` — fragment names on which the primary answer *is* the
      set of certain answers (Theorem 4.4 fragments for naïve
      evaluation; the engine treats a complete database as exact for
      every strategy separately).
    * ``sound`` / ``complete`` — bounds on incomplete data everywhere
      (not just on ``exact_on``): sound means every returned tuple is a
      certain answer; complete means every certain answer is returned.
      ``exact-certain`` declares both; the Figure 2 approximations are
      sound; SQL's three-valued evaluation is neither (Section 1).
    * ``plan_ops`` — when not ``None``, the algebra operator class names
      the strategy can consume in a plan (the Figure 2 translations are
      defined on the core operators only); the ``auto`` planner skips
      the strategy for plans using anything else, and the engine refuses
      such a plan for an explicitly named strategy before it runs (one
      gate: :func:`repro.engine.planner.unsupported_plan_ops`).  ``None``
      declares no restriction (a literal evaluator).
    * ``optimize`` — understands the engine's ``optimize=`` option
      (plan optimization via :mod:`repro.algebra.optimize`).  The engine
      only forwards the option — and only includes it in cache keys —
      for strategies that declare it.
    * ``stats`` — understands the engine's ``stats=`` option
      (statistics-driven cost-based planning via
      :mod:`repro.algebra.stats`; implies the strategy also honours
      ``optimize``).  Forwarded and cache-keyed on declaration, like
      ``optimize``.  Strategies that re-plan per possible world (the
      exact-certain expansion) deliberately do *not* declare it: each
      world carries different statistics, so per-world stats would
      defeat the one-plan-many-worlds memoisation.
    * ``backends`` — the execution backends the strategy can run its
      plans on (:data:`repro.exec.BACKEND_NAMES` minus ``"auto"``).
      Every strategy runs on ``"interpreter"``; strategies that hand
      whole algebra plans to :func:`repro.exec.execute_plans` also
      declare ``"sqlite"``, and only for those does the engine forward
      (and cache-key) the ``backend=`` option.
    * ``shardable_ops`` / ``shardable_bag_ops`` — operator class names
      allowed on the partitioned lineage of a shard plan
      (:func:`repro.sharding.planner.shard_plan`); declaring them makes
      the strategy shard-aware: its per-shard relations are unioned and
      finished once (:mod:`repro.sharding.evaluate`).  Empty means the
      strategy always evaluates coalesced on a sharded database.
    * ``cost`` — a coarse hint ordering strategies for the planner:
      ``"polynomial"`` or ``"exponential"`` (data complexity of a single
      evaluation; ``"unknown"`` sorts last).
    """

    semantics: tuple[str, ...] = ("set",)
    requires: tuple[str, ...] = ()
    bag_requires: tuple[str, ...] | None = None
    exact_on: frozenset[str] = frozenset()
    sound: bool = False
    complete: bool = False
    plan_ops: frozenset[str] | None = None
    optimize: bool = False
    stats: bool = False
    backends: tuple[str, ...] = ("interpreter",)
    shardable_ops: frozenset[str] = frozenset()
    shardable_bag_ops: frozenset[str] | None = None
    cost: str = "unknown"

    def __post_init__(self) -> None:
        # Normalise mutable/iterable inputs so records compare by value.
        object.__setattr__(self, "semantics", tuple(self.semantics))
        object.__setattr__(self, "requires", tuple(self.requires))
        if self.bag_requires is not None:
            object.__setattr__(self, "bag_requires", tuple(self.bag_requires))
        object.__setattr__(self, "exact_on", frozenset(self.exact_on))
        object.__setattr__(self, "backends", tuple(self.backends))
        if self.plan_ops is not None:
            object.__setattr__(self, "plan_ops", _op_names(self.plan_ops))
        object.__setattr__(self, "shardable_ops", _op_names(self.shardable_ops))
        if self.shardable_bag_ops is not None:
            object.__setattr__(
                self, "shardable_bag_ops", _op_names(self.shardable_bag_ops)
            )

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def exact_everywhere(self) -> bool:
        """Sound and complete: the answer is exactly the certain answers."""
        return self.sound and self.complete

    def requires_for(self, semantics: str) -> tuple[str, ...]:
        """The query forms needed under the given semantics."""
        if semantics == "bag" and self.bag_requires is not None:
            return self.bag_requires
        return self.requires

    def applicable(self, forms: tuple[str, ...], semantics: str) -> bool:
        """Can the strategy consume a query offering ``forms``?

        Conservative: an empty ``requires`` declaration answers False —
        the planner never auto-selects a strategy whose input contract
        it does not know.
        """
        if semantics not in self.semantics:
            return False
        needed = self.requires_for(semantics)
        return bool(needed) and any(form in forms for form in needed)

    def exact_on_fragment(self, fragment: str | None) -> bool:
        """Is the answer exactly the certain answers on this fragment?"""
        if self.exact_everywhere:
            return True
        return fragment is not None and fragment in self.exact_on

    def ops_for(self, semantics: str) -> frozenset[str]:
        """Shard-lineage operator names under the given semantics."""
        if semantics == "bag" and self.shardable_bag_ops is not None:
            return self.shardable_bag_ops
        return self.shardable_ops

    def as_dict(self) -> dict[str, Any]:
        """A plain-data rendering for ``Engine.describe()`` and docs."""
        return {
            "semantics": list(self.semantics),
            "requires": list(self.requires),
            "bag_requires": (
                None if self.bag_requires is None else list(self.bag_requires)
            ),
            "exact_on": sorted(self.exact_on),
            "sound": self.sound,
            "complete": self.complete,
            "plan_ops": None if self.plan_ops is None else sorted(self.plan_ops),
            "optimize": self.optimize,
            "stats": self.stats,
            "backends": list(self.backends),
            "shardable_ops": sorted(self.shardable_ops),
            "shardable_bag_ops": (
                None
                if self.shardable_bag_ops is None
                else sorted(self.shardable_bag_ops)
            ),
            "cost": self.cost,
        }


def _op_names(ops) -> frozenset[str]:
    """Normalise operator classes or names to a frozenset of names."""
    return frozenset(op if isinstance(op, str) else op.__name__ for op in ops)


def capability_fields() -> tuple[str, ...]:
    """The record's field names, in declaration order (for table docs)."""
    return tuple(f.name for f in fields(StrategyCapabilities))
