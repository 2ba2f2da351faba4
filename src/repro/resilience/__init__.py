"""Resilience primitives: deadlines, retries, circuit breakers, faults.

PRs 2–8 built the scale machinery — sharding, process pools, a
multi-tenant server, pluggable execution backends — but a single hung
shard or crashed worker could still stall or fail a whole request.
This package supplies the four primitives the execution layers thread
through to close that gap:

* :mod:`repro.resilience.deadline` — :class:`Deadline`, a wall-clock
  budget accepted as ``timeout=`` on ``Engine``/``Session`` (and their
  async twins) and as ``timeout_ms`` per server request.  It propagates
  into the worker :class:`~repro.engine.workers.Task` and is checked at
  evaluator loop boundaries, so long ``Dom^k`` enumerations and shard
  fan-outs abort with :class:`DeadlineExceeded` instead of hanging.
* :mod:`repro.resilience.retry` — :class:`RetryPolicy`, capped
  exponential backoff with *deterministic* jitter, applied to transient
  failures (killed pool workers, SQLite ``OperationalError``); retry
  counts land in
  ``result.metadata["resilience"]``.
* :mod:`repro.resilience.breaker` — a per-``(strategy, backend)``
  :class:`CircuitBreaker`.  Repeated SQLite-backend failures trip
  ``backend="auto"`` to the interpreter for a cool-down window
  (half-open probes recover), visible in the server's ``/healthz``.
* :mod:`repro.resilience.faults` — named :func:`fault_point` hooks in
  the shard executors, pool dispatch, cache backends and the SQLite
  backend.  No-ops unless a seeded :class:`FaultPlan` is armed; the
  armed plan rides on each worker task into process workers.  It powers
  the fault axis of ``tests/test_differential.py``.

Everything here is stdlib-only and imports nothing from the rest of
``repro`` — the execution layers import *us*, never the other way
around, so the package is cycle-free by construction.

Graceful shard degradation (``on_shard_error="degrade"``) lives with
the shard orchestration in :mod:`repro.sharding.evaluate`; it is
capability-gated to monotone fragments, where certain answers computed
over a *subset* of shards remain a sound under-approximation
(``"sound-subset"``) of the fault-free certain answer.
"""

from .breaker import (
    CircuitBreaker,
    breaker_for,
    breaker_snapshots,
    reset_breakers,
)
from .deadline import (
    Deadline,
    DeadlineExceeded,
    active_deadline,
    deadline_scope,
    resolve_deadline,
)
from .faults import (
    FaultPlan,
    FaultRule,
    InjectedFault,
    TransientFault,
    adopt_faults,
    arm_faults,
    armed_plan,
    disarm_faults,
    fault_point,
    faults_armed,
)
from .retry import DEFAULT_RETRY_POLICY, RetryPolicy, resolve_retry

__all__ = [
    # Deadlines
    "Deadline",
    "DeadlineExceeded",
    "active_deadline",
    "deadline_scope",
    "resolve_deadline",
    # Retries
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "resolve_retry",
    # Circuit breakers
    "CircuitBreaker",
    "breaker_for",
    "breaker_snapshots",
    "reset_breakers",
    # Fault injection
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "TransientFault",
    "fault_point",
    "arm_faults",
    "disarm_faults",
    "faults_armed",
    "armed_plan",
    "adopt_faults",
]
