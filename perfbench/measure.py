"""Clocks, noise diagnostics, answer digests and the printed result.

Throughput is a per-round median: a run's fixed schedule is cut into
rounds of identical composition and throughput is taken per round, so a
burst of contention on a shared VM moves a few rounds rather than the
whole figure.  CPU time per operation is taken over the whole pass
(/proc counts in 10 ms ticks) and is a diagnostic, not an end-to-end
metric: a vCPU slowed by another tenant on its physical core inflates
CPU time as much as wall time, and no steal is counted for it.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

_CLK_TCK = os.sysconf("SC_CLK_TCK")
SETUP_REPETITIONS = 5


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def proc_cpu_seconds(pid: int) -> float:
    """utime + stime of one process (all its threads), from /proc."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_peak_rss_mb(pid: int) -> float:
    """VmHWM (peak resident set) of one process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def steal_ticks() -> int:
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def load_average() -> list[float]:
    with open("/proc/loadavg") as handle:
        return [float(x) for x in handle.read().split()[:3]]


def answer_rows(result) -> list:
    """A result's annotated tuples in the wire encoding, sorted."""
    from repro.server.wire import encode_value

    return sorted(
        ([[encode_value(v) for v in t.row], t.status.value, t.multiplicity] for t in result.tuples),
        key=json.dumps,
    )


def wire_rows(payload: dict) -> list:
    """The same canonical form, from a server response's result object."""
    return sorted(
        ([item["row"], item["status"], item["multiplicity"]] for item in payload["annotated"]),
        key=json.dumps,
    )


def digest(rows: list) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class Timed:
    """What a timed pass over a schedule observed."""

    latencies_ms: list = field(default_factory=list)  # query operations
    write_ms: list = field(default_factory=list)  # appends (sharded-append)
    round_qps: list = field(default_factory=list)
    cpu_ms_per_op: float = 0.0
    digests: list = field(default_factory=list)  # one per query op, in order
    attempted: int = 0
    failed: int = 0
    rejected: int = 0  # HTTP 429
    timeouts: int = 0  # HTTP 504
    errors: list = field(default_factory=list)
    steal: int = 0
    probe_ms: list = field(default_factory=list)  # speed probe before and after
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0

    @property
    def refused(self) -> int:
        return self.rejected + self.timeouts

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")


def probe_ms() -> float:
    """Machine speed now: the fastest of five runs of a fixed ~1.5 ms loop
    of interpreter work.  It reads the slowdown steal ticks miss."""
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        groups: dict = {}
        for a, b, c in sorted((i * 7919 % 1000, f"k{i}", i % 13) for i in range(3000)):
            groups.setdefault(a % 97, set()).add((b, c))
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


class Rounds:
    """Per-round throughput, and whole-pass CPU, wall and steal, of a timed
    pass; the speed probe runs just before and just after it."""

    def __init__(self, timed: Timed, cpu_seconds):
        self.timed = timed
        self.cpu_seconds = cpu_seconds
        timed.probe_ms.append(probe_ms())
        self._steal0 = steal_ticks()
        self._wall_start = time.perf_counter()
        self._cpu_start = cpu_seconds()
        self.ops = 0

    def round(self):
        return _Round(self)

    def finish(self) -> None:
        self.timed.steal = steal_ticks() - self._steal0
        self.timed.wall_s = time.perf_counter() - self._wall_start
        cpu = self.cpu_seconds() - self._cpu_start
        self.timed.cpu_ms_per_op = cpu * 1000.0 / max(1, self.ops)
        self.timed.probe_ms.append(probe_ms())


class _Round:
    def __init__(self, rounds: Rounds):
        self.rounds = rounds
        self.ops = 0

    def __enter__(self):
        self.wall0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        wall = time.perf_counter() - self.wall0
        self.rounds.ops += self.ops
        if self.ops:
            self.rounds.timed.round_qps.append(self.ops / wall)
        return False


def end_to_end(timed: Timed, setup_s: float) -> dict:
    """The end-to-end metrics as ``name -> (value, unit, samples)``."""
    rounds = len(timed.round_qps)
    samples = len(timed.latencies_ms)
    return {
        "setup_s": (setup_s, "s", SETUP_REPETITIONS),
        "throughput_qps": (statistics.median(timed.round_qps), "1/s", rounds),
        "latency_p50_ms": (percentile(timed.latencies_ms, 50), "ms", samples),
        "latency_p90_ms": (percentile(timed.latencies_ms, 90), "ms", samples),
        "peak_rss_mb": (timed.peak_rss_mb, "MiB", 1),
    }


def diagnostics(timed: Timed, workload: str, seed: int, extra: dict | None = None) -> dict:
    """Noise diagnostics: printed beside the metrics, never as metrics."""
    out = {
        "workload": workload,
        "seed": seed,
        "timed_wall_s": round(timed.wall_s, 3),
        "cpu_ms_per_op": timed.cpu_ms_per_op,
        "steal_ticks": timed.steal,
        "probe_ms": [round(ms, 3) for ms in timed.probe_ms],
        "loadavg": load_average(),
        "samples": {
            "latency": len(timed.latencies_ms),
            "rounds": len(timed.round_qps),
            "writes": len(timed.write_ms),
        },
        "error_rate": (timed.failed + timed.refused) / max(1, timed.attempted),
    }
    if timed.write_ms:
        out["write_p50_ms"] = percentile(timed.write_ms, 50)
    if timed.errors:
        out["errors"] = timed.errors
    if extra:
        out.update(extra)
    return out


def emit(metrics: dict, *, correct: bool, attempted: int, failed: int, diag: dict) -> None:
    """Print the diagnostics line, then the result as the last line."""
    print("diagnostics " + json.dumps(diag, sort_keys=True))
    for name, (value, unit, samples) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} (samples={samples})")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit, _) in metrics.items()
                },
            }
        ),
        flush=True,
    )


def median_setup(setup_once, repetitions: int = SETUP_REPETITIONS):
    """Run ``setup_once`` several times; keep the last state, report the median."""
    times = []
    state = None
    for i in range(repetitions):
        if state is not None:
            state.close()
        start = time.perf_counter()
        state = setup_once(i)
        times.append(time.perf_counter() - start)
    return state, statistics.median(times), times
