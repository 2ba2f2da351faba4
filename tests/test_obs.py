"""The observability layer: tracing, metrics, EXPLAIN, and the server wiring.

Four contracts from ``repro.obs``:

* **Zero cost when disabled** — an untraced evaluation allocates no
  :class:`~repro.obs.Span` objects at all (proved via the span-creation
  hook, not by timing), and ``trace=True`` never changes the answer or
  the rest of the metadata (the randomized half of that property lives
  in ``tests/test_backend_equivalence.py``).
* **Span trees stitch across process pools** — per-shard worker spans
  collected in other processes graft back under the orchestrator's
  fan-out span, pid and all.
* **Metrics are process-wide and cheap** — the registry aggregates
  counters/gauges/histograms from the engine, cache and backend hook
  points; the module-level helpers are no-ops when gated off.
* **The server serves it** — ``GET /metrics`` exposes the registry,
  ``trace`` on a query round-trips the span tree, and the ``/stats`` /
  ``/healthz`` response shapes survived the move of ``ServerMetrics``
  into ``repro.obs.metrics``.
"""

from __future__ import annotations

import asyncio
import json
import os

import pytest

from repro import AsyncEngine, Database, Engine, Relation
from repro.algebra import builder as rb
from repro.engine import Session
from repro.obs import (
    Histogram,
    MetricsRegistry,
    SpanContext,
    add_span_hook,
    current_span,
    export_ndjson,
    metrics_enabled,
    percentile,
    remove_span_hook,
    render_explain,
    set_metrics_enabled,
    span,
    start_trace,
    tracing_active,
)
from repro.obs import metrics as obs_metrics
from repro.server import EvalServer, ServerClient, ServerConfig


@pytest.fixture
def db() -> Database:
    return Database.from_dict(
        {
            "R": (("a", "b"), [(1, 10), (2, 20), (3, 30), (4, 40)]),
            "S": (("b", "c"), [(10, "x"), (20, "y"), (50, "z")]),
        }
    )


QUERY = rb.project(rb.relation("R"), ("a",))


@pytest.fixture
def span_counter():
    created: list = []
    add_span_hook(created.append)
    yield created
    remove_span_hook(created.append)


# ----------------------------------------------------------------------
# Tracing primitives
# ----------------------------------------------------------------------
def test_span_is_noop_singleton_when_untraced():
    assert not tracing_active()
    with span("anything") as s:
        s.incr("rows", 5)
        s.set_attr("k", "v")
    with span("other") as t:
        assert t is s  # the shared no-op instance, no allocation
    assert current_span() is s
    assert SpanContext.capture() is None


def test_span_tree_nests_counts_and_exports():
    with start_trace("root", flavor="test") as root:
        assert tracing_active()
        with span("child") as child:
            child.incr("rows", 3)
            child.add_event("spill", bytes=12)
            with span("grandchild"):
                pass
    exported = root.export()
    assert exported["name"] == "root"
    assert exported["attrs"] == {"flavor": "test"}
    assert exported["wall_ms"] >= 0.0 and exported["cpu_ms"] >= 0.0
    (child_x,) = exported["children"]
    assert child_x["counters"] == {"rows": 3}
    assert child_x["events"][0]["event"] == "spill"
    assert child_x["children"][0]["name"] == "grandchild"

    lines = export_ndjson(exported).splitlines()
    assert len(lines) == 3
    flat = [json.loads(line) for line in lines]
    assert flat[0]["parent"] is None
    assert {node["parent"] for node in flat[1:]} <= {1, 2}


def test_span_records_errors():
    with pytest.raises(ValueError):
        with start_trace("root") as root:
            with span("boom"):
                raise ValueError("nope")
    exported = root.export()
    assert exported["children"][0]["error"] == "ValueError: nope"


def test_span_context_activate_replaces_ambient_trace():
    ctx_holder = {}
    with start_trace("orchestrator") as root:
        ctx = SpanContext.capture()
        assert ctx is not None and ctx.parent_name == "orchestrator"
        with ctx.activate("worker", shard=1) as worker:
            # The worker's tree is fresh — instrumentation lands there,
            # not on the orchestrator's span (no double-recording when
            # the executor shares this process).
            assert current_span() is worker
            current_span().incr("rows", 2)
        ctx_holder["export"] = worker.export()
        root.graft(ctx_holder["export"])
    exported = root.export()
    assert exported["children"][0]["name"] == "worker"
    assert exported["children"][0]["attrs"]["pid"] == os.getpid()
    assert exported["children"][0]["counters"] == {"rows": 2}
    assert "rows" not in (exported.get("counters") or {})


# ----------------------------------------------------------------------
# The zero-cost contract and trace neutrality through the engine
# ----------------------------------------------------------------------
def test_untraced_evaluation_allocates_no_spans(db, span_counter):
    with Engine() as engine:
        engine.evaluate(QUERY, db, strategy="naive", use_cache=False)
        assert span_counter == [], (
            "tracing is off but Span objects were constructed"
        )
        traced = engine.evaluate(
            QUERY, db, strategy="naive", use_cache=False, trace=True
        )
    assert len(span_counter) > 0
    assert traced.metadata["trace"]["name"] == "evaluate"


def test_trace_flag_shares_cache_entries_and_stays_out_of_them(db):
    with Engine() as engine:
        cold = engine.evaluate(QUERY, db, strategy="naive", trace=True)
        assert not cold.from_cache and "trace" in cold.metadata
        warm = engine.evaluate(QUERY, db, strategy="naive")
        # The traced call populated the entry; the untraced call hits it
        # and the stored copy carries no span tree.
        assert warm.from_cache and "trace" not in warm.metadata
        warm_traced = engine.evaluate(QUERY, db, strategy="naive", trace=True)
        assert warm_traced.from_cache and "trace" in warm_traced.metadata
        assert warm_traced.relation.rows_bag() == cold.relation.rows_bag()


def test_span_tree_stitches_across_process_pool_shards(db):
    with Engine() as engine:
        result = engine.evaluate(
            QUERY,
            db,
            strategy="naive",
            shards=2,
            executor="process",
            use_cache=False,
            trace=True,
        )
    trace = result.metadata["trace"]
    fanout = next(c for c in trace["children"] if c["name"] == "shard.fanout")
    shard_spans = [c for c in fanout["children"] if c["name"].startswith("shard[")]
    assert {s["name"] for s in shard_spans} == {"shard[0]", "shard[1]"}
    for shard_span in shard_spans:
        # Collected in a pool worker: the pid attribute proves the span
        # crossed a process boundary and still grafted under the parent.
        assert shard_span["attrs"]["pid"] != os.getpid()
        assert shard_span["wall_ms"] >= 0.0


def test_span_tree_stitches_across_async_process_pool(db):
    async def main():
        async with AsyncEngine(pool="process", max_workers=1) as engine:
            traced = await engine.evaluate(
                QUERY, db, strategy="naive", use_cache=False, trace=True
            )
            untraced = await engine.evaluate(
                QUERY, db, strategy="naive", use_cache=False
            )
        return traced, untraced

    traced, untraced = asyncio.run(main())
    trace = traced.metadata["trace"]
    workers = [c for c in trace["children"] if c["name"] == "worker"]
    # The miss ran in a pool worker, whose own root grafted once under
    # the call's root.
    assert len(workers) == 1
    assert workers[0]["attrs"]["pid"] != os.getpid()
    assert workers[0]["attrs"]["strategy"] == "naive"
    assert "trace" not in untraced.metadata
    assert traced.same_answers_as(untraced)
    assert traced.relation.rows_bag() == untraced.relation.rows_bag()


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def test_metrics_registry_counters_gauges_histograms():
    registry = MetricsRegistry()
    registry.incr("requests", strategy="naive")
    registry.incr("requests", 2, strategy="naive")
    registry.incr("requests", strategy="ctables")
    registry.gauge_set("pool.size", 4)
    for value in range(100):
        registry.observe("latency_ms", float(value))
    assert registry.counter_value("requests", strategy="naive") == 3
    snap = registry.snapshot()
    assert snap["counters"]["requests{strategy=ctables}"] == 1
    assert snap["gauges"]["pool.size"] == 4
    hist = snap["histograms"]["latency_ms"]
    assert hist["count"] == 100
    assert hist["p50"] == pytest.approx(49.5, abs=1.5)
    assert hist["p99"] >= 95.0
    registry.reset()
    assert registry.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


def test_histogram_window_is_bounded():
    histogram = Histogram(window=8)
    for value in range(100):
        histogram.observe(float(value))
    summary = histogram.summary()
    assert summary["count"] == 100  # lifetime count survives the window
    assert summary["p50"] >= 92.0  # only the tail (92..99) is retained
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)


def test_module_level_metrics_respect_the_gate():
    obs_metrics.reset_metrics()
    assert metrics_enabled()
    obs_metrics.incr("obs.test.counter")
    assert obs_metrics.snapshot()["counters"]["obs.test.counter"] == 1
    set_metrics_enabled(False)
    try:
        obs_metrics.incr("obs.test.counter")
        assert obs_metrics.snapshot()["counters"]["obs.test.counter"] == 1
    finally:
        set_metrics_enabled(True)
    obs_metrics.reset_metrics()


def test_engine_and_cache_hooks_feed_the_global_registry(db):
    obs_metrics.reset_metrics()
    with Engine() as engine:
        engine.evaluate(QUERY, db, strategy="naive")
        engine.evaluate(QUERY, db, strategy="naive")
    snap = obs_metrics.snapshot()
    assert snap["counters"]["engine.evaluations{strategy=naive}"] == 2
    assert snap["counters"]["cache.hits{backend=memory}"] >= 1
    assert snap["counters"]["cache.misses{backend=memory}"] >= 1
    assert any(k.startswith("exec.resolutions") for k in snap["counters"])
    assert snap["histograms"]["engine.elapsed_ms{strategy=naive}"]["count"] == 2
    obs_metrics.reset_metrics()


# ----------------------------------------------------------------------
# EXPLAIN
# ----------------------------------------------------------------------
def test_result_explain_renders_sections_and_trace(db):
    with Engine() as engine:
        untraced = engine.evaluate(QUERY, db, strategy="auto", use_cache=False)
        text = untraced.explain()
        assert "EXPLAIN strategy=" in text
        assert "plan:" in text and "backend:" in text
        assert "trace: none collected" in text

        traced = engine.evaluate(
            QUERY, db, strategy="auto", use_cache=False, trace=True
        )
        text = render_explain(traced)
        assert "trace:" in text and "evaluate" in text
        assert "ms wall" in text and "ms cpu" in text


def test_session_explain_profiles_a_sharded_auto_query(db):
    with Session(db, shards=2) as session:
        text = session.explain(QUERY, strategy="auto", use_cache=False)
    for needle in ("EXPLAIN", "plan:", "sharding:", "shard.fanout",
                   "shard[0]", "shard[1]", "shard.merge"):
        assert needle in text, f"missing {needle!r} in:\n{text}"


def test_describe_reports_observability(db):
    with Engine(trace=True) as engine:
        described = engine.describe()
    obs = described["observability"]
    assert obs["trace_default"] is True
    assert obs["metrics_enabled"] is True
    assert set(obs["metrics"]) == {"counters", "gauges", "histograms"}
    assert isinstance(obs["breakers"], dict)
    assert described["defaults"]["trace"] is True


# ----------------------------------------------------------------------
# Server wiring
# ----------------------------------------------------------------------
@pytest.fixture
def client(db):
    with EvalServer(
        ServerConfig(pool="thread", max_workers=2, datasets={"toy": db})
    ) as server:
        host, port = server.address
        with ServerClient(host, port, tenant="alice") as c:
            yield c


def test_server_metrics_endpoint_and_trace_flag(client):
    traced = client.query(
        "SELECT a FROM R", db="toy", strategy="naive", use_cache=False, trace=True
    )
    trace = traced["result"]["metadata"]["trace"]
    assert trace["name"] == "evaluate"
    assert any(c["name"] == "normalize" for c in trace["children"])

    untraced = client.query(
        "SELECT a FROM R", db="toy", strategy="naive", use_cache=False
    )
    assert "trace" not in untraced["result"]["metadata"]
    assert untraced["result"]["rows"] == traced["result"]["rows"]

    metrics = client._request("GET", "/metrics")
    assert set(metrics) == {"counters", "gauges", "histograms"}
    assert any(k.startswith("engine.evaluations") for k in metrics["counters"])


def test_server_stats_and_healthz_shapes_survived_the_metrics_move(client):
    """Compatibility pin: relocating ``ServerMetrics`` into
    ``repro.obs.metrics`` must not change a byte of the response shapes
    dashboards scrape."""
    client.query("SELECT a FROM R", db="toy")
    client.query("SELECT a FROM R", db="toy")

    health = client.healthz()
    assert set(health) == {"status", "breakers"}
    assert health["status"] == "ok"

    stats = client.stats()
    for key in ("uptime", "requests", "completed", "qps", "tenants",
                "strategies", "cache", "latency", "queue_wait", "execution"):
        assert key in stats, f"/stats lost the {key!r} field"
    assert set(stats["cache"]) == {"hits", "misses", "hit_rate"}
    for section in ("latency", "queue_wait", "execution"):
        assert {"p50", "p99"} <= set(stats[section])
    assert stats["completed"] >= 2
