"""The strategy registry: named evaluation strategies behind one interface.

A strategy adapts one of the repo's evaluation pipelines to the engine's
contract: consume a :class:`~repro.engine.frontend.NormalizedQuery` and
a database, produce a :class:`StrategyOutcome` (the engine wraps it into
a timed, cache-aware :class:`~repro.engine.result.QueryResult`).

Registration is by decorator; a strategy describes itself through one
declarative :class:`~repro.engine.capabilities.StrategyCapabilities`
record::

    @register_strategy("naive", aliases=("direct",))
    class NaiveStrategy(EvaluationStrategy):
        capabilities = StrategyCapabilities(
            semantics=("set", "bag"),
            requires=("algebra", "calculus"),
            optimize=True,
        )

        def run(self, query, database, *, semantics, **options):
            ...

Third-party backends (sharded, cached, async — see ROADMAP) register the
same way; nothing in the engine core knows the built-in strategy names.
A strategy class *must* declare a capability record: registration
rejects classes without one (the legacy shim that synthesized records
from plain ``supported_semantics`` / ``supports_optimize`` class
attributes has been removed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from ..datamodel.database import Database
from ..datamodel.relation import Relation
from .capabilities import StrategyCapabilities
from .errors import EngineError, StrategyNotApplicableError, UnknownStrategyError
from .frontend import NormalizedQuery
from .result import AnnotatedTuple, Certainty

__all__ = [
    "EvaluationStrategy",
    "StrategyOutcome",
    "register_strategy",
    "unregister_strategy",
    "get_strategy",
    "available_strategies",
    "strategy_capabilities",
    "strategy_aliases",
    "annotate",
]


@dataclass(frozen=True)
class StrategyOutcome:
    """What a strategy hands back to the engine core."""

    answer: Relation
    annotated: tuple[AnnotatedTuple, ...] = ()
    certain: Relation | None = None
    possible: Relation | None = None
    certainly_false: Relation | None = None
    metadata: Mapping[str, Any] = field(default_factory=dict)


def annotate(
    relation: Relation, status: Certainty, *, bag: bool = False
) -> tuple[AnnotatedTuple, ...]:
    """Annotate every distinct row of a relation with one status."""
    return tuple(
        AnnotatedTuple(row, status, multiplicity=count if bag else 1)
        for row, count in relation.iter_rows(with_multiplicity=True)
    )


class EvaluationStrategy:
    """Base class of registered strategies."""

    #: Canonical registry name; set by :func:`register_strategy`.
    name: str = ""
    #: Alternative lookup names.
    aliases: tuple[str, ...] = ()
    #: The strategy's declarative self-description — semantics, consumed
    #: query forms, exactness/soundness bounds, optimizer support,
    #: execution backends, shard lineage operators, cost hint.
    #: Subclasses must declare one; registration rejects classes
    #: without a record.
    capabilities: StrategyCapabilities | None = None
    #: One line for ``Engine.strategies()`` listings and docs.
    description: str = ""

    # Convenience views of the capability record.
    @property
    def supported_semantics(self) -> tuple[str, ...]:
        """Which of ``"set"`` / ``"bag"`` the strategy can honour."""
        caps = self.capabilities
        return caps.semantics if caps is not None else ("set",)

    @property
    def supports_optimize(self) -> bool:
        """Whether the strategy understands the engine's ``optimize=``
        option (plan optimization via :mod:`repro.algebra.optimize`).
        The engine only forwards the option — and only includes it in
        cache keys — for strategies that declare it."""
        caps = self.capabilities
        return bool(caps is not None and caps.optimize)

    @property
    def supports_stats(self) -> bool:
        """Whether the strategy understands the engine's ``stats=`` option
        (statistics-driven cost-based planning via
        :mod:`repro.algebra.stats`).  Forwarded and cache-keyed on
        declaration, like ``optimize``."""
        caps = self.capabilities
        return bool(caps is not None and caps.stats)

    @property
    def supported_backends(self) -> tuple[str, ...]:
        """The execution backends the strategy can run plans on.

        Every strategy runs on the interpreter; strategies that route
        algebra plans through :func:`repro.exec.execute_plans` also
        declare ``"sqlite"``.  The engine forwards the ``backend=``
        option — and folds it into cache keys — only for strategies
        declaring more than the interpreter."""
        caps = self.capabilities
        return caps.backends if caps is not None else ("interpreter",)

    def run(
        self,
        query: NormalizedQuery,
        database: Database,
        *,
        semantics: str,
        **options: Any,
    ) -> StrategyOutcome:
        raise NotImplementedError

    def finish(
        self,
        outcome: StrategyOutcome,
        *,
        database: Database,
        normalized: NormalizedQuery,
        semantics: str,
    ) -> StrategyOutcome:
        """Turn the relations of an outcome into the full outcome.

        :meth:`run` returns the relations (``answer``, ``certain``,
        ``possible``, ``certainly_false``) and the backend note; this
        adds what follows from them — per-row annotations, the exactness
        claim and the rest of the metadata.  A whole-query run is
        finished on its own database; a sharded run unions the shards'
        unfinished relations and is finished once on the coalesced
        database, so both paths build the claim with the same code.
        The default returns the outcome unchanged.
        """
        return outcome

    # ------------------------------------------------------------------
    # Helpers for pulling the required lowered form out of the query
    # ------------------------------------------------------------------
    def require_algebra(self, query: NormalizedQuery):
        """The algebra plan, or a precise error explaining what is missing."""
        if query.algebra is not None:
            return query.algebra
        hint = "; ".join(query.notes) if query.notes else (
            f"the {query.frontend} frontend provides no relational algebra plan"
        )
        raise StrategyNotApplicableError(
            f"strategy {self.name!r} needs a relational algebra plan ({hint}); "
            "write the query with repro.algebra.builder, or use SQL in the "
            "subquery-free fragment"
        )

    def require_executable(self, query: NormalizedQuery):
        """An algebra plan if available, else an FO query."""
        if query.algebra is not None:
            return query.algebra
        if query.fo is not None:
            return query.fo
        hint = "; ".join(query.notes) if query.notes else "no evaluable form"
        raise StrategyNotApplicableError(
            f"strategy {self.name!r} needs an algebra plan or an FO query ({hint})"
        )

    def reject_unknown_options(self, options: Mapping[str, Any]) -> None:
        if options:
            raise EngineError(
                f"strategy {self.name!r} does not understand options "
                f"{sorted(options)}"
            )


_REGISTRY: dict[str, EvaluationStrategy] = {}
_ALIASES: dict[str, str] = {}


def register_strategy(name: str, *, aliases: Iterable[str] = ()):
    """Class decorator registering an :class:`EvaluationStrategy`.

    The class is instantiated once (strategies must be stateless) and
    becomes reachable by ``name`` or any alias.  Re-registering a name
    replaces the previous strategy, which lets tests and downstream
    packages override built-ins.
    """

    aliases = tuple(aliases)

    def decorator(cls: type) -> type:
        if not issubclass(cls, EvaluationStrategy):
            raise TypeError(
                f"{cls.__name__} must subclass EvaluationStrategy to be registered"
            )
        for alias in aliases:
            if alias in _REGISTRY and alias != name:
                raise EngineError(
                    f"alias {alias!r} collides with the registered strategy of that name"
                )
            owner = _ALIASES.get(alias)
            if owner is not None and owner != name:
                raise EngineError(
                    f"alias {alias!r} is already registered for strategy {owner!r}"
                )
        instance = cls()
        instance.name = name
        instance.aliases = aliases
        if instance.capabilities is None:
            raise EngineError(
                f"strategy class {cls.__name__} declares no "
                "StrategyCapabilities record; set the 'capabilities' "
                "class attribute (the legacy supported_semantics/"
                "supports_optimize shim has been removed)"
            )
        unregister_strategy(name)
        _REGISTRY[name] = instance
        for alias in aliases:
            _ALIASES[alias] = name
        return cls

    return decorator


def unregister_strategy(name: str) -> None:
    """Remove a strategy (and its aliases) from the registry, if present."""
    instance = _REGISTRY.pop(name, None)
    if instance is not None:
        for alias in instance.aliases:
            _ALIASES.pop(alias, None)


def get_strategy(name: str) -> EvaluationStrategy:
    """Resolve a strategy by canonical name or alias.

    Canonical names win over aliases, so an alias can never shadow a
    registered strategy's own name.
    """
    strategy = _REGISTRY.get(name)
    if strategy is not None:
        return strategy
    canonical = _ALIASES.get(name)
    if canonical is not None and canonical in _REGISTRY:
        return _REGISTRY[canonical]
    raise UnknownStrategyError(name, available_strategies())


def available_strategies(
    verbose: bool = False,
) -> tuple[str, ...] | dict[str, StrategyCapabilities]:
    """The registered canonical strategy names, sorted.

    With ``verbose=True``, returns the full capability table instead — a
    ``{name: StrategyCapabilities}`` mapping, which is what the
    ``strategy="auto"`` planner consults and what ``Engine.describe()``
    renders, so users can see *why* auto chose what it chose.
    """
    if verbose:
        return {
            name: _REGISTRY[name].capabilities for name in sorted(_REGISTRY)
        }
    return tuple(sorted(_REGISTRY))


def strategy_capabilities(name: str) -> StrategyCapabilities:
    """The capability record of one strategy (by name or alias)."""
    return get_strategy(name).capabilities


def strategy_aliases() -> dict[str, str]:
    """A copy of the alias → canonical-name table."""
    return dict(_ALIASES)
