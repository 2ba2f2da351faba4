"""Wall-clock deadlines, propagated through every execution layer.

A :class:`Deadline` is an absolute point on the monotonic clock plus the
original budget (for error messages).  It is a frozen dataclass of two
floats, hence picklable: the worker :class:`~repro.engine.workers.Task`
carries it across worker-process
boundaries (on Linux ``CLOCK_MONOTONIC`` is system-wide, so the absolute
point means the same thing in the worker as in the parent).

Propagation is explicit at process boundaries (the task object) and
implicit within a process: :func:`deadline_scope` binds the deadline to
a :class:`contextvars.ContextVar`, and the checkpoints —
:meth:`Evaluator._eval <repro.algebra.evaluator.Evaluator>` per plan
node, the ``Dom^k`` enumeration loops via :meth:`Deadline.ticked`, the
SQLite backend via a progress handler — read :func:`active_deadline`.
With no deadline armed the checks cost one context-variable read.

:class:`DeadlineExceeded` subclasses :class:`TimeoutError` (not
:class:`~repro.engine.errors.EngineError`): a blown budget is an
operational condition, not a bad query, so the paths that skip or
translate engine errors (``compare(skip_inapplicable=True)``, the
server's 400 mapping) never swallow it — the server maps it to 504.
"""

from __future__ import annotations

import contextlib
import contextvars
import time
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

__all__ = [
    "Deadline",
    "DeadlineExceeded",
    "active_deadline",
    "deadline_scope",
    "resolve_deadline",
]


class DeadlineExceeded(TimeoutError):
    """The evaluation's wall-clock budget ran out before it finished."""


@dataclass(frozen=True)
class Deadline:
    """An absolute wall-clock budget on the monotonic clock."""

    #: Absolute expiry, in :func:`time.monotonic` seconds.
    at: float
    #: The original budget in seconds (messages only; may be ``inf``).
    budget: float = float("inf")

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """A deadline ``seconds`` from now."""
        seconds = float(seconds)
        if not seconds >= 0:  # also refuses NaN, which never expires
            raise ValueError("timeout must be non-negative")
        return cls(at=time.monotonic() + seconds, budget=seconds)

    def remaining(self) -> float:
        """Seconds left, clamped at zero."""
        return max(0.0, self.at - time.monotonic())

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.at

    def check(self, where: Any = None) -> None:
        """Raise :class:`DeadlineExceeded` if the budget has run out."""
        if time.monotonic() >= self.at:
            suffix = f" (at {where})" if where is not None else ""
            raise DeadlineExceeded(
                f"evaluation exceeded its {self.budget:.3f}s deadline{suffix}"
            )

    def ticked(
        self, iterable: Iterable, *, every: int = 4096, where: Any = None
    ) -> Iterator:
        """Yield from ``iterable``, checking the deadline every ``every`` items.

        The check granularity for tight enumeration loops: frequent
        enough that a runaway ``Dom^k`` product aborts promptly, rare
        enough that the clock read does not dominate the loop.
        """
        count = 0
        for item in iterable:
            count += 1
            if count >= every:
                count = 0
                self.check(where)
            yield item

    def tightened(self, other: "Deadline | None") -> "Deadline":
        """The tighter of this deadline and ``other``."""
        if other is None or self.at <= other.at:
            return self
        return other


#: The deadline governing the current logical execution, if any.
_ACTIVE: contextvars.ContextVar[Deadline | None] = contextvars.ContextVar(
    "repro_deadline", default=None
)


def active_deadline() -> Deadline | None:
    """The deadline bound by the nearest enclosing :func:`deadline_scope`."""
    return _ACTIVE.get()


@contextlib.contextmanager
def deadline_scope(deadline: Deadline | None):
    """Bind ``deadline`` for the duration of the ``with`` block.

    Nested scopes keep the *tighter* deadline, so an outer request
    budget is never loosened by an inner call; binding ``None`` is a
    no-op (the enclosing deadline, if any, stays active).
    """
    if deadline is None:
        yield None
        return
    current = _ACTIVE.get()
    effective = deadline.tightened(current)
    token = _ACTIVE.set(effective)
    try:
        yield effective
    finally:
        _ACTIVE.reset(token)


def resolve_deadline(
    timeout: "float | Deadline | None", default: "float | Deadline | None" = None
) -> Deadline | None:
    """Turn a ``timeout=`` argument into a deadline (``None`` disables).

    Accepts seconds (the budget starts *now*) or an existing
    :class:`Deadline` (passed through, so one deadline can bound a whole
    batch); ``timeout=None`` falls back to ``default`` — an engine-level
    default budget, also in seconds.
    """
    if timeout is None:
        timeout = default
    if timeout is None:
        return None
    if isinstance(timeout, Deadline):
        return timeout
    return Deadline.after(float(timeout))
