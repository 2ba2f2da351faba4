"""``CallSpec``: the per-call evaluation settings, declared once.

Every evaluation runs under the same dozen settings — semantics, the
optimizer and statistics switches, the execution backend, the deadline,
the shard-failure policy and retry policy, tracing, sharding and
caching.  They used to be re-listed (with their defaults and their
validation) by every façade; now :class:`CallSpec` is the one record:

* an engine's constructor keywords fill its default spec
  (:meth:`CallSpec.from_settings`);
* a call's keywords override it field by field, ``None`` meaning "keep
  the default" (:meth:`CallSpec.override`);
* both paths validate in ``__post_init__``, so a bad value fails the
  same way whether it arrives at construction, per call, or off the
  server's wire.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Mapping

from ..exec import validate_backend
from ..resilience import Deadline, RetryPolicy, resolve_retry
from .errors import EngineError

__all__ = ["CallSpec", "CALL_FIELDS", "ENGINE_KEYWORDS", "check_settings"]

SEMANTICS = ("set", "bag")
ON_SHARD_ERROR = ("raise", "retry", "degrade")


@dataclass(frozen=True)
class CallSpec:
    """The resolved settings of one evaluation (or an engine's defaults)."""

    #: ``"set"`` or ``"bag"`` (the constructor keyword is
    #: ``default_semantics``).
    semantics: str = "set"
    #: Run the plan optimizer (:mod:`repro.algebra.optimize`) inside
    #: every strategy that supports it; ``False`` is the escape hatch
    #: back to the textbook plans.
    optimize: bool = True
    #: Feed the optimizer per-relation statistics
    #: (:mod:`repro.algebra.stats`) so join orders and hash build sides
    #: are chosen by estimated cost; stats never change answers.
    stats: bool = True
    #: Execution backend (:mod:`repro.exec`) for strategies that run
    #: whole algebra plans: ``"auto"`` pushes expressible plans into
    #: SQLite and falls back to the interpreter otherwise.
    backend: str = "auto"
    #: Wall-clock budget in seconds, or a shared
    #: :class:`~repro.resilience.Deadline`; ``None`` is unbounded.
    timeout: float | Deadline | None = None
    #: What a failed shard does: ``"raise"`` fails the request,
    #: ``"retry"`` retries transient failures first, ``"degrade"``
    #: additionally drops shards that still fail when the query's
    #: fragment makes the surviving merge a sound under-approximation.
    on_shard_error: str = "raise"
    #: The resolved :class:`~repro.resilience.RetryPolicy` for transient
    #: failures (``None`` = no retries).
    retry: RetryPolicy | None = None
    #: Collect a span tree (:mod:`repro.obs`) and attach it as
    #: ``result.metadata["trace"]``.  Tracing observes and never steers:
    #: the flag enters neither strategy options nor cache keys.
    trace: bool = False
    #: Shard count: ``None`` = the engine default, ``0`` = monolithic.
    shards: int | None = None
    #: Shard executor name or :class:`~repro.sharding.ShardExecutor`.
    executor: Any = "serial"
    #: :class:`~repro.sharding.Partitioner` for on-the-fly sharding.
    partitioner: Any = None
    #: Probe and fill the result cache (per call only).
    use_cache: bool = True

    def __post_init__(self) -> None:
        if self.semantics not in SEMANTICS:
            raise EngineError(
                f"unknown semantics {self.semantics!r}; expected 'set' or 'bag'"
            )
        validate_backend(self.backend)
        if self.shards is not None and self.shards < 0:
            raise EngineError("shards must be a non-negative integer or None")
        if self.on_shard_error not in ON_SHARD_ERROR:
            raise EngineError(
                f"unknown on_shard_error {self.on_shard_error!r}; "
                f"expected one of {ON_SHARD_ERROR}"
            )
        for flag in ("optimize", "stats", "trace", "use_cache"):
            object.__setattr__(self, flag, bool(getattr(self, flag)))

    @classmethod
    def from_settings(cls, semantics: str, settings: Mapping[str, Any]) -> "CallSpec":
        """An engine's default spec from its constructor keywords.

        ``retry`` is resolved here (``None``/``True`` = the package
        default policy, ``False`` = no retries); unknown keywords raise
        :class:`TypeError` like any other bad keyword argument.
        """
        check_settings("Engine", settings, allowed=_DEFAULTABLE)
        settings = dict(settings)
        settings["retry"] = resolve_retry(settings.get("retry"))
        return cls(semantics=semantics, **settings)

    def override(self, overrides: Mapping[str, Any]) -> "CallSpec":
        """This spec with a call's keywords applied (``None`` = keep)."""
        changes = {
            name: value
            for name, value in overrides.items()
            if value is not None and value != getattr(self, name)
        }
        if not changes:
            return self
        if "retry" in changes:
            changes["retry"] = resolve_retry(changes["retry"])
        return replace(self, **changes)


#: Every per-call setting name (the keywords ``evaluate``/``compare``
#: take besides their own).
CALL_FIELDS = frozenset(f.name for f in fields(CallSpec))

#: The settings an engine constructor gives defaults for.
_DEFAULTABLE = CALL_FIELDS - {"semantics", "use_cache"}

#: Every keyword an :class:`~repro.engine.Engine` constructor accepts.
ENGINE_KEYWORDS = _DEFAULTABLE | {
    "cache_size",
    "cache",
    "default_semantics",
    "auto_exact_budget",
}


def check_settings(
    owner: str, settings: Mapping[str, Any], allowed: frozenset = ENGINE_KEYWORDS
) -> None:
    """Reject keywords outside ``allowed`` the way Python would."""
    for name in settings:
        if name not in allowed:
            raise TypeError(f"{owner}() got an unexpected keyword argument {name!r}")
