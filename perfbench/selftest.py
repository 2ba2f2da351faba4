"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py

* one seed gives a byte-identical schedule, another seed a different one;
* every metric name matches ``[A-Za-z0-9_.-]+`` and carries a unit, and
  the names printed are exactly those ``BENCHMARK.json`` declares;
* a traced and an untraced pass over one seed's schedule give identical
  answers, operation by operation: tracing observes, never steers.

The file is not named ``test_*.py``, so the repository's own test suite
does not collect it.
"""

from __future__ import annotations

import io
import json
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
from layers import PER_LAYER_UNITS, install_spans  # noqa: E402
from measure import Timed, emit, end_to_end  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEEDS = (3, 4)


def _schedules(seed: int) -> dict:
    return {
        "adhoc-tpch": inputs.adhoc_schedule(seed, 4),
        "serve-zipf": [inputs.serve_catalogue(seed), inputs.serve_schedule(seed, 4)],
        "sharded-append": [inputs.sharded_reads(seed), inputs.sharded_schedule(seed, 4)],
        "certain-exact": inputs.certain_schedule(seed, 4),
    }


def test_schedule_is_a_function_of_the_seed():
    first, again, other = (_schedules(s) for s in (SEEDS[0], SEEDS[0], SEEDS[1]))
    for workload in first:
        encoded = inputs.schedule_bytes(first[workload])
        assert encoded == inputs.schedule_bytes(again[workload]), workload
        assert encoded != inputs.schedule_bytes(other[workload]), workload


def test_metric_names_and_units():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    timed = Timed(latencies_ms=[1.0, 2.0], round_qps=[3.0], cpu_ms_per_op=1.0, peak_rss_mb=9.0)
    printed = {
        "end_to_end": {k: v[1] for k, v in end_to_end(timed, 0.5).items()},
        "per_layer": dict(PER_LAYER_UNITS),
    }
    for kind in ("end_to_end", "per_layer"):
        names = {m["name"]: m["unit"] for m in declared[kind]}
        assert names == printed[kind], kind
        for name, unit in names.items():
            assert NAME.fullmatch(name) and len(name) <= 64, name
            assert unit and re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), (name, unit)
    out = io.StringIO()
    with redirect_stdout(out):
        emit(
            {k: (1.5, u, 2) for k, u in printed["end_to_end"].items()},
            correct=True,
            attempted=2,
            failed=0,
            diag={},
        )
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"} and metric["unit"], name
    for line in lines[1:-1]:
        assert re.fullmatch(r"metric [A-Za-z0-9_.-]+ = \S+ \S+ \(samples=\d+\)", line), line


def _answers(workload, *, trace: bool) -> list:
    state = workload.setup_once(0)
    try:
        timed = workload.run_pass(state, workload.schedule("timed"), trace=trace)
    finally:
        state.close()
    assert timed.failed == 0 and timed.refused == 0, timed.errors
    return timed.digests


def test_tracing_never_changes_answers():
    import inprocess
    from served import ServeZipf

    install_spans()
    for cls in (inprocess.AdhocTpch, inprocess.ShardedAppend, inprocess.CertainExact, ServeZipf):
        workload = cls(SEEDS[0], 1)
        workload.keep_results = True
        untraced = _answers(workload, trace=False)
        traced = _answers(workload, trace=True)
        assert untraced and untraced == traced, cls.name


if __name__ == "__main__":
    failures = 0
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test()
                print(f"PASS {name}")
            except Exception as exc:  # noqa: BLE001 - report every test
                failures += 1
                print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    sys.exit(1 if failures else 0)
