"""The traced run: per-layer self times and counts from span trees.

The engine already opens spans at ``normalize``, ``plan``,
``cache.lookup``, ``execute``, ``execute.sqlite``/``.interpreter`` and
the sharding seams.  Layers without spans of their own are timed from
here: :func:`install_spans` wraps their public entry points at the
module attribute each caller resolves, inside a ``repro.obs`` span, so
they land in the same trees.  A wrapper is one context-variable read
when no trace is active, and it is installed before any worker process
forks, so shard workers carry it too.

A layer's self time is its span's wall time minus its in-process child
spans.  Subtrees grafted back from shard workers (roots carrying a
``pid``) ran concurrently, so they count towards the layers they
contain and towards ``executor.task_ms``, but not towards the
orchestrator's timeline, where the ``shard.fanout`` span covers them.
``unattributed_share`` is the part of operation wall time that no layer
span covers on that timeline.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from collections import Counter

# Span name -> layer.  Spans not listed ("evaluate", "execute", worker
# roots) belong to no layer: their self time is unattributed.
LAYER_OF = {
    "normalize": "frontend.normalize",
    "plan": "planner.choose",
    "cache.lookup": "cache.lookup",
    "optimize": "optimize.plan",
    "stats.compute": "stats.compute",
    "approx.translate": "approx.translate",
    "execute.sqlite": "exec.sqlite",
    "execute.interpreter": "exec.interpreter",
    "interpreter.direct": "exec.interpreter",
    "sql.evaluator": "sql.evaluator",
    "worlds.enumerate": "worlds",
    "ctables.run": "ctables",
    "shard.plan": "sharding.plan",
    "shard.fanout": "sharding.fanout",
    "shard.merge": "sharding.merge",
}

# (module, attribute, span) for the entry points that open no span.
_ENTRY_POINTS = (
    ("repro.algebra.optimize", "optimize_plan", "optimize"),
    ("repro.algebra.stats", "compute_relation_stats", "stats.compute"),
    ("repro.engine.strategies", "translate_guagliardo16", "approx.translate"),
    ("repro.approx.guagliardo16", "translate_guagliardo16", "approx.translate"),
    ("repro.engine.strategies", "translate_libkin16", "approx.translate"),
    ("repro.approx.libkin16", "translate_libkin16", "approx.translate"),
    ("repro.engine.strategies", "certain_answers_with_nulls", "worlds.enumerate"),
    ("repro.incomplete.certain", "certain_answers_with_nulls", "worlds.enumerate"),
    ("repro.engine.strategies", "run_ctable_strategy", "ctables.run"),
)

# Per-layer metrics, name -> unit; every workload reports all of them.
PER_LAYER_UNITS = {
    "frontend.normalize_ms": "ms",
    "frontend.normalize_calls": "count",
    "planner.choose_ms": "ms",
    "planner.choose_calls": "count",
    "cache.hit_ratio": "ratio",
    "cache.evictions": "count",
    "cache.lookup_ms": "ms",
    "optimize.plan_ms": "ms",
    "optimize.calls": "count",
    "stats.compute_ms": "ms",
    "stats.compute_calls": "count",
    "approx.translate_ms": "ms",
    "approx.translate_calls": "count",
    "exec.sqlite_ms": "ms",
    "exec.sqlite_calls": "count",
    "exec.interpreter_ms": "ms",
    "exec.interpreter_calls": "count",
    "exec.fallback_share": "ratio",
    "exec.rows_in_per_row_out": "ratio",
    "sql.evaluator_ms": "ms",
    "sql.evaluator_calls": "count",
    "worlds.valuations": "count",
    "worlds.us_per_valuation": "us",
    "ctables.ms": "ms",
    "sharding.plan_ms": "ms",
    "sharding.fanout_ms": "ms",
    "sharding.merge_ms": "ms",
    "sharding.partial_hit_ratio": "ratio",
    "sharding.tasks_per_read": "count",
    "sharding.append_ms": "ms",
    "executor.task_ms": "ms",
    "executor.wait_ms": "ms",
    "server.wire_ms": "ms",
    "server.eval_ms": "ms",
    "server.rejected": "count",
    "server.timeouts": "count",
    "resilience.retries": "count",
    "resilience.breaker_opens": "count",
    "resilience.degraded_shards": "count",
    "obs.trace_overhead": "ratio",
    "unattributed_share": "ratio",
    "cpu_ms_per_op": "ms",
}


_installed = []


def install_spans() -> None:
    """Wrap the span-less layer entry points (for the rest of the process)."""
    if _installed:
        return
    _installed.append(True)
    from repro.obs.trace import current_span, span

    for module_name, attribute, span_name in _ENTRY_POINTS:
        module = importlib.import_module(module_name)
        original = getattr(module, attribute)
        setattr(module, attribute, _spanned(original, span_name, span))

    from repro.sql.evaluator import SqlEvaluator

    SqlEvaluator.run = _spanned(SqlEvaluator.run, "sql.evaluator", span)

    # approx-libkin16 runs its Dom^k plans on the interpreter directly,
    # not through execute_plans (which opens execute.interpreter itself).
    strategies = importlib.import_module("repro.engine.strategies")

    class SpannedInterpreter(strategies.InterpreterBackend):
        def run(self, *args, **kwargs):
            with span("interpreter.direct"):
                return super().run(*args, **kwargs)

    strategies.InterpreterBackend = SpannedInterpreter

    certain = importlib.import_module("repro.incomplete.certain")
    iterate_worlds = certain.iterate_worlds

    def counted_worlds(*args, **kwargs):
        for world in iterate_worlds(*args, **kwargs):
            current_span().incr("valuations")
            yield world

    certain.iterate_worlds = counted_worlds


def _spanned(fn, name, span):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with span(name):
            return fn(*args, **kwargs)

    return wrapper


class LayerTotals:
    """Accumulates span trees of one traced pass."""

    def __init__(self):
        self.self_ms: Counter = Counter()  # by layer
        self.spans: Counter = Counter()  # by span name
        self.ops = 0
        self.op_wall_ms = 0.0
        self.covered_ms = 0.0
        self.cache = Counter()
        self.partials = Counter()
        self.valuations = 0
        self.worlds_wall_ms = 0.0
        self.task_ms = 0.0
        self.wait_ms = 0.0
        self.tasks = 0
        self.distributed_reads = 0
        self.rows_in = 0
        self.rows_out = 0
        self.requests = 0
        self.wire_ms = 0.0
        self.eval_ms = 0.0

    def add_op(self, wall_ms: float, tree: dict | None, rows_in: int, rows_out: int) -> None:
        """One query operation: its client-side wall time and span tree."""
        self.ops += 1
        self.op_wall_ms += wall_ms
        if tree is None:
            return
        before = self.spans["shard.plan"]
        executed = self._walk(tree, timeline=True)
        if self.spans["shard.plan"] > before:
            self.distributed_reads += 1
        if executed:
            self.rows_in += rows_in
            self.rows_out += rows_out

    def add_request(self, wall_ms: float, tree: dict, rows_in: int, rows_out: int) -> None:
        """One server request: the server's trace root is the evaluation,
        the rest of the client-observed time is the wire."""
        self.add_op(wall_ms, tree, rows_in, rows_out)
        self.requests += 1
        self.eval_ms += tree["wall_ms"]
        self.wire_ms += wall_ms - tree["wall_ms"]
        self.covered_ms += wall_ms - tree["wall_ms"]

    def _walk(self, node: dict, *, timeline: bool) -> bool:
        name = node["name"]
        children = node.get("children", ())
        local = [c for c in children if "pid" not in c.get("attrs", {})]
        grafted = [c for c in children if "pid" in c.get("attrs", {})]
        self_ms = max(0.0, node["wall_ms"] - sum(c["wall_ms"] for c in local))
        self.spans[name] += 1
        layer = LAYER_OF.get(name)
        if layer is not None:
            self.self_ms[layer] += self_ms
            if timeline:
                self.covered_ms += self_ms
        counters = node.get("counters", {})
        if name == "cache.lookup":
            self.cache[node.get("attrs", {}).get("outcome", "miss")] += 1
        elif name == "shard.plan":
            self.partials["hit"] += counters.get("partial_cache_hits", 0)
            self.partials["miss"] += counters.get("partial_cache_misses", 0)
        elif name == "worlds.enumerate":
            self.valuations += int(counters.get("valuations", 0))
            self.worlds_wall_ms += node["wall_ms"]
        elif name == "shard.fanout" and grafted:
            self.tasks += len(grafted)
            self.task_ms += sum(c["wall_ms"] for c in grafted)
            self.wait_ms += max(0.0, node["wall_ms"] - max(c["wall_ms"] for c in grafted))
        executed = name in ("execute", "shard.fanout")
        for child in local:
            executed = self._walk(child, timeline=timeline) or executed
        for child in grafted:
            self._walk(child, timeline=False)
        return executed

    def metrics(self, *, counters: dict, timed, untraced) -> dict:
        """``name -> (value, unit)`` for every per-layer metric; ``timed`` is
        the traced pass, ``untraced`` the untraced pass before it."""
        ops = max(1, self.ops)
        requests = max(1, self.requests)

        def per_op(layer):
            return self.self_ms[layer] / ops

        def calls(layer):
            return sum(n for name, n in self.spans.items() if LAYER_OF.get(name) == layer)

        lookups = self.cache["hit"] + self.cache["miss"]
        partials = self.partials["hit"] + self.partials["miss"]
        resolutions = self.spans["execute.sqlite"] + self.spans["execute.interpreter"]
        values = {
            "frontend.normalize_ms": per_op("frontend.normalize"),
            "frontend.normalize_calls": calls("frontend.normalize"),
            "planner.choose_ms": per_op("planner.choose"),
            "planner.choose_calls": calls("planner.choose"),
            "cache.hit_ratio": self.cache["hit"] / lookups if lookups else 0.0,
            "cache.evictions": counters.get("cache.evictions", 0),
            "cache.lookup_ms": per_op("cache.lookup"),
            "optimize.plan_ms": per_op("optimize.plan"),
            "optimize.calls": calls("optimize.plan"),
            "stats.compute_ms": per_op("stats.compute"),
            "stats.compute_calls": calls("stats.compute"),
            "approx.translate_ms": per_op("approx.translate"),
            "approx.translate_calls": calls("approx.translate"),
            "exec.sqlite_ms": per_op("exec.sqlite"),
            "exec.sqlite_calls": calls("exec.sqlite"),
            "exec.interpreter_ms": per_op("exec.interpreter"),
            "exec.interpreter_calls": calls("exec.interpreter"),
            # Every timed call runs backend="auto", so each interpreter
            # resolution of execute_plans is a fallback from SQLite.
            "exec.fallback_share": (
                self.spans["execute.interpreter"] / resolutions if resolutions else 0.0
            ),
            "exec.rows_in_per_row_out": self.rows_in / max(1, self.rows_out) if self.rows_in else 0.0,
            "sql.evaluator_ms": per_op("sql.evaluator"),
            "sql.evaluator_calls": calls("sql.evaluator"),
            "worlds.valuations": self.valuations,
            "worlds.us_per_valuation": (
                self.worlds_wall_ms * 1000.0 / self.valuations if self.valuations else 0.0
            ),
            "ctables.ms": per_op("ctables"),
            "sharding.plan_ms": per_op("sharding.plan"),
            "sharding.fanout_ms": per_op("sharding.fanout"),
            "sharding.merge_ms": per_op("sharding.merge"),
            "sharding.partial_hit_ratio": self.partials["hit"] / partials if partials else 0.0,
            "sharding.tasks_per_read": (
                self.tasks / self.distributed_reads if self.distributed_reads else 0.0
            ),
            "sharding.append_ms": statistics.mean(timed.write_ms) if timed.write_ms else 0.0,
            "executor.task_ms": self.task_ms / ops,
            "executor.wait_ms": self.wait_ms / ops,
            "server.wire_ms": self.wire_ms / requests,
            "server.eval_ms": self.eval_ms / requests,
            "server.rejected": timed.rejected,
            "server.timeouts": timed.timeouts,
            "resilience.retries": counters.get("retries", 0),
            "resilience.breaker_opens": counters.get("breaker_opens", 0),
            "resilience.degraded_shards": counters.get("degraded_shards", 0),
            "obs.trace_overhead": timed.cpu_ms_per_op / untraced.cpu_ms_per_op,
            "unattributed_share": (
                max(0.0, self.op_wall_ms - self.covered_ms) / self.op_wall_ms
                if self.op_wall_ms
                else 0.0
            ),
            "cpu_ms_per_op": untraced.cpu_ms_per_op,
        }
        return {name: (float(values[name]), unit) for name, unit in PER_LAYER_UNITS.items()}


def registry_counters(before: dict, after: dict) -> dict:
    """Deltas of the ``repro.obs`` registry counters the layers report."""

    def total(snapshot, prefix, must_contain=""):
        return sum(
            value
            for key, value in snapshot.get("counters", {}).items()
            if key.split("{", 1)[0] == prefix and must_contain in key
        )

    def delta(prefix, must_contain=""):
        return total(after, prefix, must_contain) - total(before, prefix, must_contain)

    return {
        "cache.evictions": delta("cache.evictions"),
        "retries": delta("sharding.retries") + delta("exec.sqlite_retries"),
        "breaker_opens": delta("resilience.breaker.transitions", "->open}"),
        "degraded_shards": delta("sharding.degraded_shards"),
    }
