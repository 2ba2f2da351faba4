"""Seedable fault injection: named hooks that do nothing until armed.

The execution layers call :func:`fault_point` at the places where the
real world fails — shard-task execution, pool dispatch, cache backend
reads/writes, the SQLite backend::

    fault_point("shard.task", shard=task.shard, strategy=task.strategy.name)

With no :class:`FaultPlan` armed the call is a module-global ``None``
check — effectively free, safe to leave in production paths.  The chaos
harness arms a plan (:func:`arm_faults`, :func:`faults_armed`) and the
hooks start failing on a *deterministic schedule*: each decision is
drawn from ``(plan seed, point name, per-point fire counter)``, so a
fixed seed replays the exact same crash/delay/error sequence run after
run.  Process workers outlive any one arming, so the plan armed when a
:class:`~repro.engine.workers.Task` is built rides on the task (pickled
as its JSON) and the worker adopts it for that task
(:func:`adopt_faults`).

Three fault kinds:

* ``"error"`` — raise (``error=`` names the class: ``"transient"`` is
  retryable by :class:`~repro.resilience.retry.RetryPolicy`,
  ``"fatal"`` is not, ``"operational"`` is SQLite's
  ``OperationalError``, ``"connection-reset"``/``"broken-pipe"`` mimic
  network failures);
* ``"delay"`` — sleep ``delay`` seconds (deadline checks still fire
  around it, so an injected hang tests the timeout machinery);
* ``"crash"`` — ``os._exit(3)``: the hard death of a worker process,
  exactly what a pool must survive.

Rules can be scoped with ``where={...}``: the rule fires only when the
fault point's keyword info matches every entry (e.g. only shard 0).
"""

from __future__ import annotations

import contextlib
import fnmatch
import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

__all__ = [
    "InjectedFault",
    "TransientFault",
    "FaultRule",
    "FaultPlan",
    "fault_point",
    "arm_faults",
    "disarm_faults",
    "faults_armed",
    "armed_plan",
    "adopt_faults",
]


class InjectedFault(RuntimeError):
    """A failure raised by the fault injector (non-transient kind)."""


class TransientFault(InjectedFault):
    """An injected failure that retry policies classify as transient."""


#: Named error kinds a rule can raise — names, not classes, so plans
#: serialize to JSON and survive the ``spawn`` start method.
ERROR_KINDS: dict[str, type[BaseException]] = {
    "transient": TransientFault,
    "fatal": InjectedFault,
    "operational": sqlite3.OperationalError,
    "connection-reset": ConnectionResetError,
    "broken-pipe": BrokenPipeError,
}


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: where, how often, and what happens."""

    #: Fault-point name, ``fnmatch``-style (``"shard.*"`` matches all
    #: shard hooks).
    point: str
    probability: float = 1.0
    kind: str = "error"  # "error" | "delay" | "crash"
    error: str = "transient"
    delay: float = 0.05
    #: Stop firing after this many hits (``None`` = unlimited).
    max_fires: int | None = None
    #: Fire only when the fault point's info matches every entry.
    where: Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("error", "delay", "crash"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind == "error" and self.error not in ERROR_KINDS:
            raise ValueError(
                f"unknown error kind {self.error!r}; expected one of "
                f"{sorted(ERROR_KINDS)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")

    def matches(self, point: str, info: Mapping[str, Any]) -> bool:
        if not fnmatch.fnmatchcase(point, self.point):
            return False
        if self.where:
            return all(info.get(k) == v for k, v in self.where.items())
        return True

    def as_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "point": self.point,
            "probability": self.probability,
            "kind": self.kind,
        }
        if self.kind == "error":
            data["error"] = self.error
        if self.kind == "delay":
            data["delay"] = self.delay
        if self.max_fires is not None:
            data["max_fires"] = self.max_fires
        if self.where:
            data["where"] = dict(self.where)
        return data


class FaultPlan:
    """A seeded set of fault rules with deterministic decisions.

    Every decision draws from ``(seed, point, n)`` where ``n`` is the
    per-point invocation counter — the schedule depends only on the
    seed and the order of fault-point hits, never on global random
    state.
    """

    def __init__(self, rules: Sequence[FaultRule], *, seed: int = 0):
        self.rules = tuple(rules)
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._hits: dict[str, int] = {}
        self._fires: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def _draw(self, point: str) -> tuple[float, int]:
        import random

        with self._lock:
            n = self._hits.get(point, 0)
            self._hits[point] = n + 1
        return random.Random(f"{self.seed}:{point}:{n}").random(), n

    def decide(self, point: str, info: Mapping[str, Any]) -> FaultRule | None:
        """The rule that fires at this hit of ``point``, if any."""
        matching = [
            (i, rule)
            for i, rule in enumerate(self.rules)
            if rule.matches(point, info)
        ]
        if not matching:
            return None
        draw, _ = self._draw(point)
        for index, rule in matching:
            if draw >= rule.probability:
                continue
            with self._lock:
                fired = self._fires.get(index, 0)
                if rule.max_fires is not None and fired >= rule.max_fires:
                    continue
                self._fires[index] = fired + 1
            return rule
        return None

    def fire_counts(self) -> dict[str, int]:
        """How many times each rule fired, keyed by rule point."""
        with self._lock:
            return {
                self.rules[i].point: count for i, count in self._fires.items()
            }

    # ------------------------------------------------------------------
    # Serialization (a plan travels to process workers on its task)
    # ------------------------------------------------------------------
    def __reduce__(self):
        # Pickled as its JSON: the lock stays behind, and a worker's copy
        # starts its own draw counters.
        return (FaultPlan.from_json, (self.to_json(),))

    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed, "rules": [rule.as_dict() for rule in self.rules]}
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        rules = [FaultRule(**rule) for rule in data.get("rules", ())]
        return cls(rules, seed=int(data.get("seed", 0)))


# ----------------------------------------------------------------------
# Arming
# ----------------------------------------------------------------------
_PLAN: FaultPlan | None = None
_ARM_LOCK = threading.Lock()


def arm_faults(plan: FaultPlan) -> None:
    """Arm ``plan`` process-wide (until :func:`disarm_faults`)."""
    global _PLAN
    with _ARM_LOCK:
        _PLAN = plan


def disarm_faults() -> None:
    global _PLAN
    with _ARM_LOCK:
        _PLAN = None


def armed_plan() -> FaultPlan | None:
    """The currently armed plan."""
    return _PLAN


def adopt_faults(plan: FaultPlan | None) -> None:
    """Arm the plan a task brought to a worker process (``None``
    disarms).  A plan equal to the armed one (same JSON) keeps the armed
    copy, and with it the draw counters of the earlier tasks."""
    global _PLAN
    with _ARM_LOCK:
        if plan is None or _PLAN is None or plan.to_json() != _PLAN.to_json():
            _PLAN = plan


@contextlib.contextmanager
def faults_armed(plan: FaultPlan):
    """Arm ``plan`` for the duration of the ``with`` block."""
    previous = armed_plan()
    arm_faults(plan)
    try:
        yield plan
    finally:
        if previous is None:
            disarm_faults()
        else:
            arm_faults(previous)


def fault_point(name: str, **info: Any) -> None:
    """A named injection hook; a no-op unless a plan is armed.

    The fast path is one global read and a ``None`` check — cheap
    enough to sit on production hot paths.
    """
    plan = _PLAN
    if plan is None:
        return
    rule = plan.decide(name, info)
    if rule is None:
        return
    if rule.kind == "delay":
        time.sleep(rule.delay)
    elif rule.kind == "crash":
        os._exit(3)
    else:
        raise ERROR_KINDS[rule.error](
            f"injected fault at {name!r}"
            + (f" {dict(info)!r}" if info else "")
        )
