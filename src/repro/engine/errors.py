"""Exceptions raised by the evaluation engine façade."""

from __future__ import annotations

__all__ = [
    "EngineError",
    "UnknownStrategyError",
    "StrategyNotApplicableError",
    "NormalizationError",
]


class EngineError(ValueError):
    """Base class of all engine-level errors."""


class UnknownStrategyError(EngineError):
    """Raised when a strategy name is not in the registry."""

    def __init__(self, name: str, available: tuple[str, ...]):
        self.name = name
        self.available = available
        super().__init__(
            f"unknown evaluation strategy {name!r}; "
            f"registered strategies: {', '.join(available)}"
        )

    def __reduce__(self):
        # BaseException pickles via ``args`` (here: the formatted
        # message), which does not round-trip through this two-argument
        # __init__.  The error must survive a worker-process boundary —
        # run_task resolves strategies by name in
        # the worker — or the unpickle failure breaks the whole pool.
        return (type(self), (self.name, self.available))


class StrategyNotApplicableError(EngineError):
    """Raised when a strategy cannot evaluate the given query form.

    Every frontend (SQL text, relational algebra, relational calculus) is
    accepted by the engine, but not every strategy can consume every
    lowered form — e.g. the Figure 2 translations need a relational
    algebra plan, and SQL-semantics evaluation needs either an SQL AST or
    an FO formula.  The message says which form is missing and how to
    provide it.
    """


class NormalizationError(EngineError):
    """Raised when an input query cannot be recognised as any frontend."""
