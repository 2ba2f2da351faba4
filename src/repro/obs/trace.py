"""Context-variable span trees: where did an evaluation spend its time?

The tracing layer follows the same discipline as
:mod:`repro.resilience.deadline` — an ambient context variable, never a
parameter threaded through every call site, and **zero hot-path cost
when disabled**: :func:`span` performs exactly one context-variable read
and yields a shared no-op singleton when no trace is active, so
instrumented code pays nothing until somebody asks for a trace.

A trace is a tree of :class:`Span` objects.  The engine opens a root
span per evaluation (``trace=True``), phases open children with
``with span("optimize"):``, and instrumented code attaches counters
(rows in/out, cache events, SQL statements) to :func:`current_span`.
Because tracing observes and never steers, the flag does **not** enter
evaluation options or cache keys — enabling a trace can never change an
answer, only describe how it was produced.

Crossing process pools: a :class:`Span` holds live children and cannot
be pickled, so :meth:`SpanContext.capture` snapshots just enough
identity to ride a worker ``Task`` (:mod:`repro.engine.workers`).  The
worker calls :meth:`SpanContext.activate` to open a *fresh local* root
(replacing, not extending, any ambient trace — under serial or thread
executors the orchestrator's trace is ambient in the same context and
would otherwise double-record), returns ``root.export()`` as plain
data, and the orchestrator grafts that export back under the parent
span with :meth:`Span.graft`.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

__all__ = [
    "Span",
    "SpanContext",
    "add_span_hook",
    "current_span",
    "export_ndjson",
    "remove_span_hook",
    "span",
    "start_trace",
    "tracing_active",
]

_ACTIVE: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repro_obs_active_span", default=None
)

# Span-creation hooks: the overhead-guard test registers a counter here
# to prove that a disabled trace allocates no Span objects at all.
_SPAN_HOOKS: list[Callable[["Span"], None]] = []
_TRACE_IDS = itertools.count(1)


def add_span_hook(hook: Callable[["Span"], None]) -> None:
    """Call ``hook(span)`` for every :class:`Span` constructed."""
    _SPAN_HOOKS.append(hook)


def remove_span_hook(hook: Callable[["Span"], None]) -> None:
    try:
        _SPAN_HOOKS.remove(hook)
    except ValueError:
        pass


class Span:
    """One timed node in a trace tree (wall *and* CPU time).

    Mutable by design: counters accumulate while the span is open.  A
    span is owned by the context that opened it; cross-process children
    arrive as plain exported dicts via :meth:`graft`.
    """

    __slots__ = (
        "name",
        "attrs",
        "counters",
        "events",
        "children",
        "error",
        "_wall0",
        "_cpu0",
        "wall_ms",
        "cpu_ms",
    )

    def __init__(self, name: str, attrs: dict[str, Any] | None = None):
        self.name = name
        self.attrs: dict[str, Any] = dict(attrs) if attrs else {}
        self.counters: dict[str, float] = {}
        self.events: list[dict[str, Any]] = []
        self.children: list[Any] = []  # Span | exported dict (grafted)
        self.error: str | None = None
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        self.wall_ms: float | None = None
        self.cpu_ms: float | None = None
        if _SPAN_HOOKS:
            for hook in list(_SPAN_HOOKS):
                hook(self)

    # ------------------------------------------------------------------
    # Instrumentation surface (mirrored by _NoopSpan)
    # ------------------------------------------------------------------
    def incr(self, counter: str, amount: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def add_event(self, name: str, **attrs: Any) -> None:
        event = {"event": name, "at_ms": (time.perf_counter() - self._wall0) * 1000.0}
        if attrs:
            event.update(attrs)
        self.events.append(event)

    def graft(self, exported: dict[str, Any]) -> None:
        """Attach a worker's exported subtree as a child of this span."""
        if exported:
            self.children.append(exported)

    def finish(self, error: BaseException | None = None) -> None:
        if self.wall_ms is None:
            self.wall_ms = (time.perf_counter() - self._wall0) * 1000.0
            self.cpu_ms = (time.process_time() - self._cpu0) * 1000.0
        if error is not None:
            self.error = f"{type(error).__name__}: {error}"

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export(self) -> dict[str, Any]:
        """The whole subtree as JSON-safe plain data."""
        self.finish()
        out: dict[str, Any] = {
            "name": self.name,
            "wall_ms": round(self.wall_ms or 0.0, 3),
            "cpu_ms": round(self.cpu_ms or 0.0, 3),
        }
        if self.attrs:
            out["attrs"] = {k: _json_safe(v) for k, v in self.attrs.items()}
        if self.counters:
            out["counters"] = dict(self.counters)
        if self.events:
            out["events"] = list(self.events)
        if self.error:
            out["error"] = self.error
        if self.children:
            out["children"] = [
                child.export() if isinstance(child, Span) else child
                for child in self.children
            ]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.wall_ms is None else f"{self.wall_ms:.2f}ms"
        return f"Span({self.name!r}, {state}, {len(self.children)} children)"


class _NoopSpan:
    """The shared do-nothing span yielded when tracing is off."""

    __slots__ = ()

    def incr(self, counter: str, amount: float = 1) -> None:
        pass

    def set_attr(self, key: str, value: Any) -> None:
        pass

    def add_event(self, name: str, **attrs: Any) -> None:
        pass

    def graft(self, exported: dict[str, Any]) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<noop span>"


_NOOP = _NoopSpan()


def tracing_active() -> bool:
    """Is a trace currently collecting in this context?"""
    return _ACTIVE.get() is not None


def current_span() -> "Span | _NoopSpan":
    """The innermost open span, or the no-op singleton when untraced."""
    active = _ACTIVE.get()
    return active if active is not None else _NOOP


@contextmanager
def span(name: str, **attrs: Any) -> Iterator["Span | _NoopSpan"]:
    """Open a child span under the active trace.

    When no trace is active this is one context-variable read and a
    yield of the shared no-op singleton — no allocation, no timing
    calls.  Exceptions are recorded on the span and re-raised.
    """
    parent = _ACTIVE.get()
    if parent is None:
        yield _NOOP
        return
    child = Span(name, attrs if attrs else None)
    parent.children.append(child)
    token = _ACTIVE.set(child)
    try:
        yield child
    except BaseException as exc:
        child.finish(exc)
        raise
    finally:
        child.finish()
        _ACTIVE.reset(token)


@contextmanager
def start_trace(name: str, **attrs: Any) -> Iterator[Span]:
    """Begin collecting a trace rooted at ``name``.

    If a trace is already active (a server request tracing an engine
    call, say) the new root nests as a child span, so the subtree still
    stitches into the enclosing trace; :meth:`Span.export` on the
    yielded span covers exactly this evaluation either way.
    """
    parent = _ACTIVE.get()
    root = Span(name, attrs if attrs else None)
    if parent is not None:
        parent.children.append(root)
    token = _ACTIVE.set(root)
    try:
        yield root
    except BaseException as exc:
        root.finish(exc)
        raise
    finally:
        root.finish()
        _ACTIVE.reset(token)


# ----------------------------------------------------------------------
# Crossing process boundaries
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SpanContext:
    """A picklable marker that tracing is on, carried by pool tasks.

    Live spans hold children and clocks and cannot cross a pickle
    boundary; what a worker actually needs is (a) *whether* to collect
    and (b) a label tying its local tree back to the parent.
    """

    trace_id: int
    parent_name: str

    @classmethod
    def capture(cls) -> "SpanContext | None":
        """Snapshot the active span, or None when tracing is off."""
        active = _ACTIVE.get()
        if active is None:
            return None
        return cls(trace_id=next(_TRACE_IDS), parent_name=active.name)

    @contextmanager
    def activate(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Collect a fresh local tree in a worker.

        Deliberately *replaces* any ambient trace for the duration (see
        module docstring: serial and thread executors share the
        orchestrator's context, and extending it would double-record
        once the export is grafted).
        """
        root = Span(name, attrs if attrs else None)
        root.attrs.setdefault("pid", os.getpid())
        token = _ACTIVE.set(root)
        try:
            yield root
        except BaseException as exc:
            root.finish(exc)
            raise
        finally:
            root.finish()
            _ACTIVE.reset(token)


# ----------------------------------------------------------------------
# Serialisation helpers
# ----------------------------------------------------------------------
def _json_safe(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_json_safe(v) for v in value]
    return str(value)


def export_ndjson(exported: dict[str, Any]) -> str:
    """Flatten an exported span tree to NDJSON, one span per line.

    Each line carries ``id`` and ``parent`` fields so the tree can be
    rebuilt (or bulk-loaded into any log store) downstream.
    """
    lines: list[str] = []
    counter = itertools.count(1)

    def walk(node: dict[str, Any], parent_id: int | None) -> None:
        span_id = next(counter)
        flat = {k: v for k, v in node.items() if k != "children"}
        flat["id"] = span_id
        flat["parent"] = parent_id
        lines.append(json.dumps(flat, sort_keys=True, default=str))
        for child in node.get("children", ()):  # depth-first, parents first
            walk(child, span_id)

    walk(exported, None)
    return "\n".join(lines)
