"""EXPLAIN: render one evaluation's profile as a human-readable report.

The engine already records *what happened* in result metadata — the
``strategy="auto"`` decision (``metadata["plan"]``), the execution
backend resolution (``metadata["backend"]``), the sharding mode, the
resilience events (retries, degradations) — and, when ``trace=True``,
*where the time went* as a span tree (``metadata["trace"]``).  This
module folds all of it into one report::

    session = Session(db, shards=4)
    print(session.explain("SELECT ..."))      # evaluates with trace=True

    result = session.auto(query, trace=True)
    print(result.explain())                   # same report, existing result

No engine imports at module level: the renderer consumes plain metadata
mappings, so :mod:`repro.obs` stays importable from every engine layer
without cycles.
"""

from __future__ import annotations

from typing import Any, Mapping

__all__ = ["render_explain", "render_span_tree"]


def _scalar(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _render_mapping(mapping: Mapping[str, Any]) -> str:
    parts = []
    for key, value in mapping.items():
        if isinstance(value, Mapping):
            parts.append(f"{key}={{{_render_mapping(value)}}}")
        elif isinstance(value, (list, tuple)):
            parts.append(f"{key}=[{', '.join(_scalar(v) for v in value)}]")
        else:
            parts.append(f"{key}={_scalar(value)}")
    return ", ".join(parts)


def _span_label(node: Mapping[str, Any]) -> str:
    label = str(node.get("name", "?"))
    timing = f"{node.get('wall_ms', 0.0):.2f}ms wall / {node.get('cpu_ms', 0.0):.2f}ms cpu"
    extras = []
    attrs = node.get("attrs")
    if attrs:
        extras.append(_render_mapping(attrs))
    counters = node.get("counters")
    if counters:
        extras.append(_render_mapping(counters))
    events = node.get("events")
    if events:
        names = [str(event.get("event", "?")) for event in events]
        extras.append("events: " + ", ".join(names))
    if node.get("error"):
        extras.append(f"ERROR {node['error']}")
    suffix = f"  [{'; '.join(extras)}]" if extras else ""
    return f"{label:<28s} {timing}{suffix}"


def render_span_tree(node: Mapping[str, Any], *, indent: str = "  ") -> list[str]:
    """An exported span tree as indented report lines."""
    lines = [indent + _span_label(node)]

    def walk(children: list, depth_prefix: str) -> None:
        for position, child in enumerate(children):
            last = position == len(children) - 1
            connector = "└─ " if last else "├─ "
            lines.append(depth_prefix + connector + _span_label(child))
            walk(
                list(child.get("children", ())),
                depth_prefix + ("   " if last else "│  "),
            )

    walk(list(node.get("children", ())), indent)
    return lines


#: Metadata sections surfaced ahead of the trace, in report order.
_SECTIONS = (
    "plan", "backend", "sharding", "resilience", "degraded", "exact", "valuations"
)


def render_explain(result: Any) -> str:
    """The EXPLAIN report of one :class:`~repro.engine.result.QueryResult`.

    Accepts any object with ``strategy``/``semantics``/``relation``/
    ``elapsed``/``from_cache``/``metadata`` attributes (duck-typed to
    avoid an import cycle with the engine).
    """
    metadata: Mapping[str, Any] = result.metadata or {}
    lines = [
        "EXPLAIN "
        f"strategy={result.strategy} semantics={result.semantics} "
        f"rows={len(result.relation)} elapsed={result.elapsed * 1000:.2f}ms "
        f"cached={'yes' if result.from_cache else 'no'}"
    ]
    for key in _SECTIONS:
        value = metadata.get(key)
        if value is None:
            continue
        if isinstance(value, Mapping):
            lines.append(f"{key}: {_render_mapping(value)}")
        else:
            lines.append(f"{key}: {_scalar(value)}")
    trace = metadata.get("trace")
    if isinstance(trace, Mapping):
        lines.append("trace:")
        lines.extend(render_span_tree(trace))
    else:
        lines.append(
            "trace: none collected (evaluate with trace=True, or use "
            "session.explain())"
        )
    return "\n".join(lines)
