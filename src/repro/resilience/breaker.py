"""Circuit breakers: stop hammering a backend that keeps failing.

``backend="auto"`` prefers the SQLite pushdown when a plan is
expressible — but when SQLite itself is unhealthy (injected faults, a
full or corrupted tmpfs), every request would pay a failed pushdown
attempt (plus retries) before falling back to the interpreter.  A
:class:`CircuitBreaker` per ``(strategy, backend)`` pair cuts that
short with the classic three-state machine:

* **closed** — requests flow; ``failure_threshold`` *consecutive*
  failures trip the breaker;
* **open** — requests are refused (``backend="auto"`` resolves straight
  to the interpreter) until ``cooldown`` seconds pass;
* **half-open** — after the cooldown, up to ``half_open_probes``
  requests are admitted as probes: one success closes the breaker,
  one failure re-opens it for another cooldown.

The registry (:func:`breaker_for`) is process-global so every engine in
a server shares one health view per pair; :func:`breaker_snapshots`
feeds the server's ``/healthz``, and :func:`reset_breakers` gives tests
a clean slate.  An explicit ``backend="sqlite"`` request bypasses the
breaker — a demand is a demand — but still records its outcome.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable

__all__ = [
    "CircuitBreaker",
    "add_transition_listener",
    "breaker_for",
    "breaker_snapshots",
    "remove_transition_listener",
    "reset_breakers",
]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

# State-transition listeners: called as ``listener(name, old, new)``
# whenever any breaker changes state.  Resilience imports nothing from
# the rest of the package, so observability subscribes from the outside
# (``repro.obs.metrics`` counts transitions per breaker).  Listeners run
# under the breaker's lock and must be fast and never call back into
# the breaker.
_TRANSITION_LISTENERS: list[Callable[[str, str, str], None]] = []


def add_transition_listener(listener: Callable[[str, str, str], None]) -> None:
    if listener not in _TRANSITION_LISTENERS:
        _TRANSITION_LISTENERS.append(listener)


def remove_transition_listener(listener: Callable[[str, str, str], None]) -> None:
    try:
        _TRANSITION_LISTENERS.remove(listener)
    except ValueError:
        pass


def _env_float(name: str, default: float) -> float:
    try:
        return float(os.environ.get(name, default))
    except (TypeError, ValueError):
        return default


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except (TypeError, ValueError):
        return default


class CircuitBreaker:
    """A thread-safe closed → open → half-open breaker.

    ``clock`` is injectable for deterministic tests (defaults to
    :func:`time.monotonic`).
    """

    def __init__(
        self,
        *,
        failure_threshold: int | None = None,
        cooldown: float | None = None,
        half_open_probes: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold is None:
            failure_threshold = _env_int("REPRO_BREAKER_THRESHOLD", 5)
        if cooldown is None:
            cooldown = _env_float("REPRO_BREAKER_COOLDOWN", 30.0)
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be a positive integer")
        if cooldown < 0:
            raise ValueError("cooldown must be non-negative")
        if half_open_probes < 1:
            raise ValueError("half_open_probes must be a positive integer")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.half_open_probes = half_open_probes
        self.name = "breaker"  # overwritten by breaker_for with "strategy/backend"
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        self._probes_in_flight = 0
        self._trips = 0
        self._successes = 0
        self._failures = 0

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------
    def _transition(self, new_state: str) -> None:
        # Caller holds the lock.
        old_state = self._state
        if old_state == new_state:
            return
        self._state = new_state
        for listener in list(_TRANSITION_LISTENERS):
            try:
                listener(self.name, old_state, new_state)
            except Exception:  # a broken listener must not break the breaker
                pass

    def _maybe_half_open(self) -> None:
        # Caller holds the lock.
        if (
            self._state == OPEN
            and self._opened_at is not None
            and self._clock() - self._opened_at >= self.cooldown
        ):
            self._transition(HALF_OPEN)
            self._probes_in_flight = 0

    def allow(self) -> bool:
        """May a request go through right now?

        In the half-open state, admitted requests count as probes (at
        most ``half_open_probes`` concurrently); their recorded outcome
        decides whether the breaker closes or re-opens.
        """
        with self._lock:
            self._maybe_half_open()
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN:
                if self._probes_in_flight < self.half_open_probes:
                    self._probes_in_flight += 1
                    return True
                return False
            return False

    def record_success(self) -> None:
        with self._lock:
            self._successes += 1
            self._consecutive_failures = 0
            if self._state == HALF_OPEN:
                self._probes_in_flight = max(0, self._probes_in_flight - 1)
            self._transition(CLOSED)
            self._opened_at = None

    def release_probe(self) -> None:
        """Return a half-open probe slot without recording an outcome.

        For results that say nothing about backend health — a capability
        miss, a blown deadline — so an admitted probe can neither close
        nor re-open the breaker, but does not leak its slot either.
        """
        with self._lock:
            if self._state == HALF_OPEN:
                self._probes_in_flight = max(0, self._probes_in_flight - 1)

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            self._consecutive_failures += 1
            if self._state == HALF_OPEN:
                # The probe failed: straight back to open, fresh cooldown.
                self._probes_in_flight = max(0, self._probes_in_flight - 1)
                self._transition(OPEN)
                self._opened_at = self._clock()
                self._trips += 1
            elif (
                self._state == CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._transition(OPEN)
                self._opened_at = self._clock()
                self._trips += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def snapshot(self) -> dict:
        """Plain-data health record (for ``/healthz`` and tests)."""
        with self._lock:
            self._maybe_half_open()
            remaining = None
            if self._state == OPEN and self._opened_at is not None:
                remaining = max(
                    0.0, self.cooldown - (self._clock() - self._opened_at)
                )
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "failure_threshold": self.failure_threshold,
                "trips": self._trips,
                "successes": self._successes,
                "failures": self._failures,
                "cooldown": self.cooldown,
                "cooldown_remaining": remaining,
            }

    def reset(self) -> None:
        with self._lock:
            self._transition(CLOSED)
            self._consecutive_failures = 0
            self._opened_at = None
            self._probes_in_flight = 0


# ----------------------------------------------------------------------
# The process-global registry
# ----------------------------------------------------------------------
_REGISTRY: dict[tuple[str, str], CircuitBreaker] = {}
_REGISTRY_LOCK = threading.Lock()


def _renew_registry_lock() -> None:
    # A forked worker keeps the registry and its breakers but not a lock
    # some other parent thread held at the fork: workers take a
    # breaker's own lock on every plan they execute.
    global _REGISTRY_LOCK
    _REGISTRY_LOCK = threading.Lock()
    for breaker in _REGISTRY.values():
        breaker._lock = threading.Lock()


os.register_at_fork(after_in_child=_renew_registry_lock)


def breaker_for(strategy: str, backend: str, **kwargs) -> CircuitBreaker:
    """The shared breaker for one ``(strategy, backend)`` pair.

    ``kwargs`` (``failure_threshold``, ``cooldown``, ...) apply only
    when this call *creates* the breaker; an existing breaker keeps its
    configuration.
    """
    key = (str(strategy), str(backend))
    with _REGISTRY_LOCK:
        breaker = _REGISTRY.get(key)
        if breaker is None:
            breaker = _REGISTRY[key] = CircuitBreaker(**kwargs)
            breaker.name = f"{key[0]}/{key[1]}"
        return breaker


def breaker_snapshots() -> dict[str, dict]:
    """Every registered breaker's snapshot, keyed ``"strategy/backend"``."""
    with _REGISTRY_LOCK:
        items = list(_REGISTRY.items())
    return {f"{strategy}/{backend}": b.snapshot() for (strategy, backend), b in items}


def reset_breakers() -> None:
    """Forget every breaker (tests and benchmark harnesses)."""
    with _REGISTRY_LOCK:
        _REGISTRY.clear()
