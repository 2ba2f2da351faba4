"""``repro.obs`` — engine-wide observability: tracing, metrics, EXPLAIN.

Three pieces, stdlib only, with the same zero-cost-when-disabled
discipline as :mod:`repro.resilience`:

* :mod:`repro.obs.trace` — context-variable span trees.  The engine
  opens a root span per ``trace=True`` evaluation; instrumented code
  opens children with ``with span("optimize"):`` and attaches counters
  to :func:`current_span`.  A picklable :class:`SpanContext` rides
  the worker ``Task`` into process pools so worker spans stitch
  back under the parent.  When no trace is active, :func:`span` is one
  context-variable read — no allocation.
* :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry`
  (counters, gauges, bounded-window histograms with p50/p99) fed by hook
  points in the engine, cache backends, execution backends, sharding
  orchestrator and circuit breakers; also home of the server's
  per-request aggregation (:class:`ServerMetrics`, formerly
  ``repro.server.metrics``).
* :mod:`repro.obs.explain` — folds the span tree and the decision
  metadata (``plan``/``backend``/``sharding``/``resilience``) into one
  human-readable report behind ``session.explain(query)`` and
  ``result.explain()``.

Tracing observes and never steers: the ``trace=`` flag enters neither
evaluation options nor cache keys, so enabling it can never change an
answer — only describe how it was produced.
"""

from .explain import render_explain, render_span_tree
from .metrics import (
    Histogram,
    MetricsRegistry,
    RequestRecord,
    ServerMetrics,
    global_registry,
    metrics_enabled,
    percentile,
    reset_metrics,
    set_metrics_enabled,
)
from .trace import (
    Span,
    SpanContext,
    add_span_hook,
    current_span,
    export_ndjson,
    remove_span_hook,
    span,
    start_trace,
    tracing_active,
)

__all__ = [
    # trace
    "Span",
    "SpanContext",
    "add_span_hook",
    "current_span",
    "export_ndjson",
    "remove_span_hook",
    "span",
    "start_trace",
    "tracing_active",
    # metrics
    "Histogram",
    "MetricsRegistry",
    "RequestRecord",
    "ServerMetrics",
    "global_registry",
    "metrics_enabled",
    "percentile",
    "reset_metrics",
    "set_metrics_enabled",
    # explain
    "render_explain",
    "render_span_tree",
]
