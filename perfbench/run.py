"""Run benchmark workloads against the program in this checkout.

    python3 perfbench/run.py --workload adhoc-tpch --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced pass over the same schedule.  Diagnostics
(steal ticks, load average, sample counts, write latency, error rate)
and one human-readable line per metric come first; the last line of
standard output is the JSON result.  The exit code is 0 when every
checked answer matched, 1 on a correctness mismatch, 2 when the program
sources are missing.  ``--workload all`` runs every workload in turn,
each in a fresh interpreter, and ends with one JSON line whose metric
names are prefixed with the workload.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ("adhoc-tpch", "serve-zipf", "sharded-append", "certain-exact")


def workload_class(name: str):
    import inprocess
    import served

    return {
        "adhoc-tpch": inprocess.AdhocTpch,
        "serve-zipf": served.ServeZipf,
        "sharded-append": inprocess.ShardedAppend,
        "certain-exact": inprocess.CertainExact,
    }[name]


def run_all(args) -> int:
    """Every workload in its own interpreter; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or child.returncode
        if child.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined), flush=True)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error, so the server subprocess and the
    # shard workers are closed by the ``finally`` blocks that own them.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    src = REPO / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(src))

    from measure import emit

    workload = workload_class(args.workload)(args.seed, args.seconds)
    run = workload.traced if args.trace else workload.measured
    metrics, correct, attempted, failed, diag, _ = run()
    emit(metrics, correct=correct, attempted=attempted, failed=failed, diag=diag)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
