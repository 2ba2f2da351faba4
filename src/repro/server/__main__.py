"""``python -m repro.server`` — run the evaluation service.

Examples::

    python -m repro.server --port 8080
    python -m repro.server --workload tpch-lite --scale 0.05 --pool process
    python -m repro.server --cache disk:/tmp/reprosrv --max-concurrency 8

The server stays up until SIGINT/SIGTERM, then shuts down cleanly
(cancelling in-flight work and releasing pool workers).
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

from .service import EvalServer, ServerConfig

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Multi-tenant certain-answer evaluation service.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument(
        "--pool",
        choices=("process", "thread", "serial"),
        default="thread",
        help="worker pool for strategy execution (process = cancellable)",
    )
    parser.add_argument("--max-workers", type=int, default=2)
    parser.add_argument("--max-concurrency", type=int, default=4)
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=16,
        help="admitted-but-waiting requests before answering 429",
    )
    parser.add_argument(
        "--cache",
        default=None,
        help="shared cache store: memory (default) or disk:<path>",
    )
    parser.add_argument("--cache-size", type=int, default=1024)
    parser.add_argument(
        "--workload",
        choices=("none", "tpch-lite"),
        default="tpch-lite",
        help="pre-register a server-wide dataset and its named queries",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="row-count multiplier over the TPC-H-lite defaults",
    )
    parser.add_argument(
        "--null-rate", type=float, default=0.1, help="workload null rate"
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--verbose", action="store_true")
    return parser


def _load_workload(server: EvalServer, args: argparse.Namespace) -> None:
    if args.workload != "tpch-lite":
        return
    from ..workloads import TpchLiteConfig, generate_tpch_lite, tpch_lite_queries

    base = TpchLiteConfig()
    config = TpchLiteConfig(
        customers=max(1, round(base.customers * args.scale)),
        orders=max(1, round(base.orders * args.scale)),
        lineitems=max(1, round(base.lineitems * args.scale)),
        suppliers=max(1, round(base.suppliers * args.scale)),
        parts=max(1, round(base.parts * args.scale)),
        null_rate=args.null_rate,
        seed=args.seed,
    )
    server.add_dataset("tpch-lite", generate_tpch_lite(config))
    server.add_queries(tpch_lite_queries())


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    server = EvalServer(
        ServerConfig(
            host=args.host,
            port=args.port,
            pool=args.pool,
            max_workers=args.max_workers,
            max_concurrency=args.max_concurrency,
            queue_limit=args.queue_limit,
            cache=args.cache,
            cache_size=args.cache_size,
            verbose=args.verbose,
        )
    )
    _load_workload(server, args)
    stop = threading.Event()

    def _signal_handler(signum, frame):  # noqa: ARG001
        stop.set()

    signal.signal(signal.SIGINT, _signal_handler)
    signal.signal(signal.SIGTERM, _signal_handler)
    server.start()
    host, port = server.address
    print(f"repro.server listening on http://{host}:{port}", flush=True)
    try:
        stop.wait()
    finally:
        print("repro.server shutting down ...", flush=True)
        server.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
