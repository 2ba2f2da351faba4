"""Retry policies: capped exponential backoff with deterministic jitter.

A :class:`RetryPolicy` decides *whether* an error is worth another
attempt and *how long* to wait before it.  Two design constraints shape
it:

* **Determinism.**  The chaos harness replays fixed-seed fault
  schedules; a retry delay drawn from global ``random`` state would make
  those runs unreproducible.  Jitter is therefore derived from
  ``(seed, attempt)`` through a private :class:`random.Random`, so the
  same policy produces the same delay sequence every run.
* **No imports from the rest of ``repro``.**  Transient error classes
  live in layers that import *this* package (the process pool's
  :class:`~repro.engine.process_pool.BrokenWorkerError`), so the
  retryable set matches exception types
  *by name along the MRO* as well as by class — cycle-free and
  pickle-friendly.

:class:`DeadlineExceeded` is never retryable: a blown budget must
surface immediately, however transient the underlying stall was.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from .deadline import Deadline, DeadlineExceeded

__all__ = ["RetryPolicy", "DEFAULT_RETRY_POLICY", "resolve_retry"]


#: Exception classes (by name, matched along the MRO) treated as
#: transient by default: worker-process deaths, connection hiccups,
#: SQLite's operational failures, and the fault injector's transient
#: kind.  Genuine evaluation errors (EngineError and friends) are not
#: here — retrying a deterministic failure only wastes the budget.
DEFAULT_TRANSIENT_NAMES: tuple[str, ...] = (
    "BrokenWorkerError",
    "ConnectionError",
    "ConnectionResetError",
    "RemoteDisconnected",
    "EOFError",
    "BrokenPipeError",
    "InterruptedError",
    "OperationalError",
    "TransientFault",
)


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    ``max_attempts`` counts *total* tries (1 = no retries).  The delay
    before retry ``n`` (1-based) is ``base_delay * multiplier**(n-1)``
    capped at ``max_delay``, plus a jitter fraction in
    ``[0, jitter * delay]`` drawn deterministically from ``seed``.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: int = 0
    #: Extra exception *types* treated as transient besides the
    #: name-matched defaults.
    retryable: Sequence[type] = field(default_factory=tuple)
    #: Exception-class names (matched along the MRO) treated as
    #: transient.
    retryable_names: Sequence[str] = DEFAULT_TRANSIENT_NAMES

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be a positive integer")

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def is_retryable(self, exc: BaseException) -> bool:
        """Is this failure transient (worth another attempt)?"""
        if isinstance(exc, DeadlineExceeded):
            return False
        if self.retryable and isinstance(exc, tuple(self.retryable)):
            return True
        names = set(self.retryable_names)
        return any(cls.__name__ in names for cls in type(exc).__mro__)

    # ------------------------------------------------------------------
    # Delays
    # ------------------------------------------------------------------
    def delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based), jitter included."""
        if attempt < 1:
            return 0.0
        base = min(self.base_delay * self.multiplier ** (attempt - 1), self.max_delay)
        if self.jitter <= 0:
            return base
        rng = random.Random(f"{self.seed}:{attempt}")
        return base * (1.0 + self.jitter * rng.random())

    def delays(self) -> Iterator[float]:
        """The delay sequence for retries 1..max_attempts-1."""
        for attempt in range(1, self.max_attempts):
            yield self.delay(attempt)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def call(
        self,
        fn: Callable[[], Any],
        *,
        deadline: Deadline | None = None,
        on_retry: Callable[[int, BaseException], None] | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> tuple[Any, int]:
        """Run ``fn`` under this policy; returns ``(result, retries)``.

        Non-transient errors propagate immediately.  A ``deadline``
        bounds the whole affair: no retry starts with the budget spent,
        and backoff sleeps never overshoot the remaining time.
        """
        retries = 0
        while True:
            try:
                return fn(), retries
            except Exception as exc:
                retries += 1
                if retries >= self.max_attempts or not self.is_retryable(exc):
                    raise
                if deadline is not None and deadline.expired:
                    raise
                pause = self.delay(retries)
                if deadline is not None:
                    pause = min(pause, deadline.remaining())
                if pause > 0:
                    sleep(pause)
                if on_retry is not None:
                    on_retry(retries, exc)


#: The engine-wide default: one retry with a short backoff — enough to
#: absorb a killed-and-respawned pool worker without stretching genuine
#: failures.
DEFAULT_RETRY_POLICY = RetryPolicy(max_attempts=2, base_delay=0.02, max_delay=0.2)


def resolve_retry(retry: "RetryPolicy | bool | None") -> RetryPolicy | None:
    """Turn a ``retry=`` argument into a policy.

    ``None`` means the engine default, ``False`` disables retries
    entirely, a :class:`RetryPolicy` is used as-is.
    """
    if retry is None:
        return DEFAULT_RETRY_POLICY
    if retry is False:
        return None
    if retry is True:
        return DEFAULT_RETRY_POLICY
    if not isinstance(retry, RetryPolicy):
        raise TypeError(
            f"retry must be a RetryPolicy, True/False or None, not {retry!r}"
        )
    return retry
