"""What every workload shares: set-up, correctness gate and the two runs.

A workload provides ``setup_once(i)`` (a state with ``close()``),
``schedule(stream)``, ``run_pass(state, schedule, trace=, totals=)``
returning a :class:`~measure.Timed` and filling ``self.samples`` with
``(op, context, rows)``, and ``reference(op, context)``.
"""

from __future__ import annotations

import random

import inputs
from layers import LayerTotals, install_spans, registry_counters
from measure import answer_rows, diagnostics, end_to_end, median_setup


def reference_session(database, shape: str | None = None):
    """Monolithic, interpreter backend, unoptimized, uncached.

    The four-way q_localsupp keeps the optimizer on: unoptimized it is a
    48*100*160*20-row Cartesian product that the reference cannot finish.
    """
    from repro import Session

    return Session(
        database,
        backend="interpreter",
        optimize=shape == "localsupp",
        cache_size=0,
    )


class Workload:
    name = ""
    check_sample = 24  # operations re-checked against the reference configuration
    keep_results = False  # set by the self-tests: a digest per answer, in schedule order

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.rounds = inputs.round_count(self.name, seconds)
        self.samples: list = []

    def sampled(self, operations: int) -> set:
        """The seeded sample of operation indexes the gate re-checks."""
        rng = random.Random(f"{self.seed}:{self.name}:check")
        return set(rng.sample(range(operations), min(self.check_sample, operations)))

    def metrics_snapshot(self, state) -> dict:
        from repro.obs import metrics

        return metrics.snapshot()

    def check(self) -> list[str]:
        """The correctness gate over the sampled operations."""
        return [
            f"answer differs from the reference configuration: {op!r}"[:200]
            for op, context, rows in self.samples
            if answer_rows(self.reference(op, context)) != rows
        ]

    def measured(self):
        state, setup_s, setup_times = median_setup(self.setup_once)
        try:
            timed = self.run_pass(state, self.schedule("timed"), trace=False)
        finally:
            state.close()
        mismatches = self.check()
        diag = diagnostics(
            timed,
            self.name,
            self.seed,
            {"setup_runs_s": setup_times, "mismatches": mismatches[:5], "checked": len(self.samples)},
        )
        failed = timed.failed + timed.refused + len(mismatches)
        return end_to_end(timed, setup_s), not mismatches, timed.attempted, failed, diag, timed

    def traced(self):
        """Per-layer metrics: an untraced pass over a sibling schedule (other
        literals, so no memo is warm), then a traced pass over the timed one."""
        install_spans()
        state = self.setup_once(0)
        try:
            baseline = self.run_pass(state, self.schedule("baseline"), trace=False)
        finally:
            state.close()
        state = self.setup_once(0)
        totals = LayerTotals()
        try:
            before = self.metrics_snapshot(state)
            timed = self.run_pass(state, self.schedule("timed"), trace=True, totals=totals)
            after = self.metrics_snapshot(state)
        finally:
            state.close()
        mismatches = self.check()
        per_layer = totals.metrics(
            counters=registry_counters(before, after),
            timed=timed,
            untraced=baseline,
        )
        diag = diagnostics(timed, self.name, self.seed, {"mismatches": mismatches[:5], "traced": True})
        failed = timed.failed + timed.refused + len(mismatches)
        metrics = {name: (value, unit, totals.ops) for name, (value, unit) in per_layer.items()}
        return metrics, not mismatches, timed.attempted, failed, diag, timed
