"""serve-zipf: the evaluation server under cached, Zipf-skewed traffic.

The server runs as a subprocess (``python -m repro.server --workload
none``, thread pool).  Two tenants each register the TPC-H-lite dataset
over ``POST /datasets``; one ``ServerClient`` per tenant (2 keep-alive
connections, one per core of the reference VM) sends closed-loop
``POST /query`` requests drawn Zipf-skewed from a fixed catalogue of
(SQL text, strategy) keys.  The catalogue (2 x 42 keys) fits the
server's 1024-entry cache and is warmed in set-up, so nearly every timed
request is a cache hit.

The clients are used as shipped: one connection each, no socket options.
Every request on this server pays ~40 ms of Nagle/delayed-ACK stall (the
handler writes headers and body separately), and this workload is meant
to show that stall as ``server.wire_ms`` until it is fixed.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import inputs
from layers import LayerTotals
from measure import Rounds, Timed, digest, proc_cpu_seconds, proc_peak_rss_mb, wire_rows
from workload import Workload, reference_session

DATASET = "tpch"
START_TIMEOUT_S = 60


class _Server:
    """One server subprocess and a client per tenant."""

    def __init__(self, database, catalogue):
        from repro.server.client import ServerClient

        src = os.path.dirname(os.path.abspath(sys.modules["repro"].__path__[0]))
        env = dict(os.environ, PYTHONPATH=src)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--workload", "none", "--port", "0",
             "--pool", "thread", "--max-workers", "2"],
            stdout=subprocess.PIPE,
            # Nobody drains stderr while the server runs; a pipe could fill.
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        self.clients = []
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else ""
            if "listening on http://" not in line:
                raise RuntimeError(f"server did not start (exit code {self.proc.poll()}): {line!r}")
            host, port = line.strip().rsplit("/", 1)[1].rsplit(":", 1)
            self.clients = [
                ServerClient(host, int(port), tenant=f"tenant{c}") for c in range(inputs.SERVE_CLIENTS)
            ]
            for client in self.clients:
                client.register_dataset(DATASET, database)
            items = [{"query": inputs.build_query(op), "strategy": op["strategy"]} for op in catalogue]
            with ThreadPoolExecutor(len(self.clients)) as pool:
                summaries = list(pool.map(lambda c: list(c.batch(items, db=DATASET))[-1], self.clients))
            for summary in summaries:
                if summary.get("errors") or summary.get("completed") != len(items):
                    raise RuntimeError(f"cache warm-up failed: {summary}")
        except BaseException:
            self.close()
            raise

    @property
    def pid(self) -> int:
        return self.proc.pid

    def get_json(self, path: str) -> dict:
        """A plain GET on the server's HTTP API (``ServerClient`` has no /metrics)."""
        client = self.clients[0]
        conn = http.client.HTTPConnection(client.host, client.port, timeout=client.timeout)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def close(self) -> None:
        for client in self.clients:
            client.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        else:
            self.proc.communicate()


class ServeZipf(Workload):
    name = "serve-zipf"
    check_sample = 16

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed, seconds)
        self.database = inputs.tpch_database()
        self.catalogue = inputs.serve_catalogue(seed)
        self.texts = [inputs.build_query(op) for op in self.catalogue]
        sizes = {name: len(rel) for name, rel in self.database.relations()}
        self.rows_in = [sum(sizes[r] for r in inputs.SHAPE_RELATIONS[op["shape"]]) for op in self.catalogue]

    def schedule(self, stream: str):
        return inputs.serve_schedule(self.seed, self.rounds, stream)

    def setup_once(self, i: int) -> _Server:
        return _Server(self.database, self.catalogue)

    def metrics_snapshot(self, server: _Server) -> dict:
        return server.get_json("/metrics")

    def run_pass(self, server: _Server, schedule, *, trace: bool, totals: LayerTotals | None = None) -> Timed:
        from repro.server.client import ServerBusyError, ServerTimeoutError

        timed = Timed()
        lock = threading.Lock()
        sampled = self.sampled(sum(len(keys) for per_client in schedule for keys in per_client))
        self.samples = []
        options = {"trace": True} if trace else {}
        kept = []  # (index, key, ms, result), looked at after timing

        def client_round(client, keys, first_index):
            done = 0
            for index, key in enumerate(keys, first_index):
                op = self.catalogue[key]
                start = time.perf_counter()
                try:
                    response = client.query(self.texts[key], db=DATASET, strategy=op["strategy"], **options)
                except ServerBusyError:
                    with lock:
                        timed.rejected += 1
                    continue
                except ServerTimeoutError:
                    with lock:
                        timed.timeouts += 1
                    continue
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    with lock:
                        timed.fail(op["strategy"], exc)
                    continue
                ms = (time.perf_counter() - start) * 1000.0
                done += 1
                with lock:
                    timed.latencies_ms.append(ms)
                    if trace or self.keep_results or index in sampled:
                        kept.append((index, key, ms, response["result"]))
            return done

        clock = Rounds(timed, lambda: proc_cpu_seconds(server.pid))
        index = 0
        with ThreadPoolExecutor(len(server.clients)) as pool:
            for per_client in schedule:
                with clock.round() as rnd:
                    futures = []
                    for client, keys in zip(server.clients, per_client):
                        futures.append(pool.submit(client_round, client, keys, index))
                        index += len(keys)
                        timed.attempted += len(keys)
                    rnd.ops = sum(f.result() for f in futures)
        clock.finish()
        timed.peak_rss_mb = proc_peak_rss_mb(server.pid)
        # The two clients finish in either order; answers are compared by
        # schedule position.
        for index, key, ms, result in sorted(kept, key=lambda item: item[0]):
            rows = wire_rows(result)
            if index in sampled:
                self.samples.append((key, None, rows))
            if self.keep_results:
                timed.digests.append(digest(rows))
            if totals is not None:
                totals.add_request(ms, result["metadata"]["trace"], self.rows_in[key], len(result["rows"]))
        return timed

    def reference(self, key, context):
        """The in-process answer the server's must equal."""
        op = self.catalogue[key]
        return reference_session(self.database, op["shape"]).evaluate(self.texts[key], strategy=op["strategy"])
