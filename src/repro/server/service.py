"""The evaluation service: one engine, many tenants, HTTP/JSON front door.

``EvalServer`` turns the repo's engine stack into a long-running,
multi-client service (stdlib only — ``http.server`` threads in front of
one asyncio event loop hosting per-tenant
:class:`~repro.engine.aio.AsyncEngine` twins):

* **Tenant isolation.**  Every tenant gets a private
  :class:`~repro.engine.cache.NamespacedCacheBackend` slice of one
  shared backend (memory, ``disk:<path>``, or ``shm:<name>``), its own
  sync/async engine pair, and a tenant-scoped dataset namespace layered
  over the server-wide datasets.  Identical (query, database)
  fingerprints from different tenants never share cache entries.
* **Admission control.**  A bounded gate of
  ``max_concurrency + queue_limit`` slots sits in front of the loop;
  a full gate answers ``429 {"error": "busy"}`` immediately instead of
  queueing unboundedly.  Admitted requests wait on an asyncio semaphore
  for one of ``max_concurrency`` execution slots — that wait is the
  ``queue_wait`` metric.
* **Streaming.**  ``POST /batch`` answers with a chunked NDJSON stream:
  one line per query *in completion order* (each line carries its input
  index), so clients consume tuples as evaluations finish rather than
  after the slowest one.
* **Cancellation.**  An explicit ``POST /cancel`` (or the client
  vanishing — detected by half-close while a request is pending, or by
  a failed chunk write while streaming) cancels the request's asyncio
  task.  Cancellation unwinds the engine's single-flight group (see
  :mod:`repro.engine.aio`), so the abandoned result is never cached,
  and — with the ``process`` pool's
  :class:`~repro.server.pool.CancellableProcessExecutor` — terminates
  the worker process actually computing it.
* **Metrics.**  ``GET /stats`` aggregates per-request queue wait,
  execution time, cache hit rate and the strategy that ran (the
  planner's choice for ``strategy="auto"``), plus admission and cache
  backend counters (:class:`repro.obs.ServerMetrics`).  ``GET
  /metrics`` exposes the process-wide engine metrics registry
  (:mod:`repro.obs.metrics`): cache hits per backend, backend
  resolutions, shard retries, breaker transitions.
* **Tracing.**  A ``"trace": true`` flag on ``/query`` or ``/batch``
  evaluates with the engine's span tracing on; the exported span tree
  comes back under ``result.metadata.trace`` in the response.

Endpoints: ``GET /healthz``, ``GET /stats``, ``GET /metrics``,
``GET /strategies``, ``GET /datasets``, ``POST /datasets``,
``POST /query``, ``POST /batch``, ``POST /cancel``.  See
:mod:`repro.server.client` for the matching client and
:mod:`repro.server.__main__` for the CLI entry point.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import json
import socket
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Mapping

from ..datamodel.database import Database
from ..engine import (
    AsyncEngine,
    Engine,
    EngineError,
    NormalizationError,
    StrategyNotApplicableError,
    UnknownStrategyError,
    database_fingerprint,
    resolve_cache_backend,
)
from ..engine.cache import CacheBackend, NamespacedCacheBackend
from ..engine.workers import pool_kind
from ..resilience import DeadlineExceeded, breaker_snapshots
from ..obs.metrics import RequestRecord, ServerMetrics
from ..obs.metrics import snapshot as obs_snapshot
from .pool import CancellableProcessExecutor
from .wire import decode_database, encode_result, json_safe

__all__ = ["ServerConfig", "EvalServer", "serve"]

DEFAULT_TENANT = "public"

_ENGINE_ERRORS = (
    EngineError,
    NormalizationError,
    StrategyNotApplicableError,
    UnknownStrategyError,
    ValueError,
    LookupError,
    TypeError,
)


@dataclass
class ServerConfig:
    """Tunables of one :class:`EvalServer`."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port; read it back from server.address
    #: Worker pool for strategy execution: ``"process"`` uses the
    #: cancellable pool (cancellation terminates workers), ``"thread"``
    #: keeps evaluation in-process (cancellation abandons the result but
    #: the thread runs on), ``"serial"`` computes on the event loop
    #: (debugging only — blocks all concurrency).
    pool: str = "thread"
    max_workers: int = 2
    #: Concurrent executions; additional admitted requests queue.
    max_concurrency: int = 4
    #: Admitted-but-waiting requests beyond ``max_concurrency``; past
    #: that the server answers 429.
    queue_limit: int = 16
    #: Shared cache backend spec (``None``/"memory", ``"disk:<path>"``,
    #: ``"shm:<name>"``, or a :class:`~repro.engine.cache.CacheBackend`).
    cache: Any = None
    cache_size: int = 1024
    default_strategy: str = "auto"
    default_semantics: str = "set"
    #: Default execution backend for tenant engines
    #: (:data:`repro.exec.BACKEND_NAMES`): ``"auto"`` pushes expressible
    #: algebra plans into SQLite, ``"interpreter"`` forces the
    #: tree-walking evaluator; per-request ``"backend"`` overrides it.
    backend: str = "auto"
    #: Server-wide datasets, visible to every tenant (cache still
    #: namespaced per tenant).
    datasets: Mapping[str, Database] = field(default_factory=dict)
    #: Named queries resolvable through ``{"query_ref": name}`` (e.g.
    #: the TPC-H-lite suite); values are anything the engine frontend
    #: normalizes.
    queries: Mapping[str, Any] = field(default_factory=dict)
    #: Seconds between client-liveness probes while a request is pending.
    poll_interval: float = 0.05
    verbose: bool = False


def _timeout_seconds(timeout_ms: Any) -> float:
    timeout_ms = float(timeout_ms)
    if not timeout_ms > 0:  # also refuses NaN, which json.loads accepts
        raise ValueError("timeout_ms must be a positive number")
    return timeout_ms / 1000.0


def _json_bool(value: Any) -> bool:
    # bool("false") is True: only a JSON boolean may switch a setting.
    if not isinstance(value, bool):
        raise ValueError(f"expected a JSON boolean, got {value!r}")
    return value


#: Request keys that set a per-call engine setting
#: (:class:`~repro.engine.spec.CallSpec` field): wire key -> (field,
#: decoder).  Both ``/query`` and ``/batch`` (whose top-level keys apply
#: to every item) decode through this one table; ``stats`` stays off
#: the wire.  The span tree of ``"trace": true`` rides back in
#: ``result.metadata["trace"]`` (``encode_result`` serialises metadata
#: as-is).
WIRE_SETTINGS: dict[str, tuple[str, Any]] = {
    "semantics": ("semantics", lambda value: value or None),
    "use_cache": ("use_cache", _json_bool),
    "optimize": ("optimize", _json_bool),
    "backend": ("backend", str),
    "timeout_ms": ("timeout", _timeout_seconds),
    "on_shard_error": ("on_shard_error", str),
    "trace": ("trace", _json_bool),
}


def _decode_settings(payload: Mapping[str, Any]) -> dict[str, Any]:
    settings = {}
    for key, (name, decode) in WIRE_SETTINGS.items():
        if payload.get(key) is not None:
            settings[name] = decode(payload[key])
    return settings


class _Tenant:
    """One tenant's engines and cache slice."""

    def __init__(self, name: str, server: "EvalServer"):
        self.name = name
        self.cache = NamespacedCacheBackend(server._backend, name)
        self.engine = Engine(
            cache=self.cache,
            default_semantics=server.config.default_semantics,
            backend=server.config.backend,
        )
        self.aengine = AsyncEngine(engine=self.engine, pool=server._engine_pool())


class _AdmissionGate:
    """A non-blocking bounded counter: try-acquire or reject."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._in_flight = 0

    def try_acquire(self) -> bool:
        with self._lock:
            if self._in_flight >= self.capacity:
                return False
            self._in_flight += 1
            return True

    def release(self) -> None:
        with self._lock:
            self._in_flight = max(0, self._in_flight - 1)

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight


class EvalServer:
    """A multi-tenant evaluation service over one shared cache backend."""

    def __init__(self, config: ServerConfig | None = None, **overrides: Any):
        if config is None:
            config = ServerConfig(**overrides)
        elif overrides:
            raise TypeError("pass either a ServerConfig or keyword overrides")
        kind = pool_kind(config.pool, names_only=True)
        if config.max_concurrency < 1:
            raise EngineError("max_concurrency must be a positive integer")
        if config.queue_limit < 0:
            raise EngineError("queue_limit must be non-negative")
        self.config = config
        self.metrics = ServerMetrics()
        self._owns_backend = not isinstance(config.cache, CacheBackend)
        self._backend = resolve_cache_backend(
            config.cache, cache_size=config.cache_size
        )
        self._pool: Any = None
        if kind == "process":
            self._pool = CancellableProcessExecutor(max_workers=config.max_workers)
        elif kind == "thread":
            self._pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=config.max_workers,
                thread_name_prefix="repro-server-worker",
            )
        self._admission = _AdmissionGate(config.max_concurrency + config.queue_limit)
        self._exec_slots = asyncio.Semaphore(config.max_concurrency)
        self._tenants: dict[str, _Tenant] = {}
        self._tenants_lock = threading.Lock()
        # (tenant, scope) dataset namespace; server-wide entries under
        # tenant None.  Values are (database, memoised fingerprint).
        self._datasets: dict[tuple[str | None, str], tuple[Database, str]] = {}
        self._datasets_lock = threading.Lock()
        self._inflight: dict[tuple[str, str], concurrent.futures.Future] = {}
        self._inflight_lock = threading.Lock()
        self._active_requests = 0
        self._active_lock = threading.Lock()
        self._rejected = 0
        self._closing = False
        self._loop = asyncio.new_event_loop()
        self._loop_thread: threading.Thread | None = None
        self._http_thread: threading.Thread | None = None
        self._httpd = _HTTPServer((config.host, config.port), _Handler)
        self._httpd.eval_server = self
        for name, database in config.datasets.items():
            self.add_dataset(name, database)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "EvalServer":
        """Start the event loop and the HTTP front end (non-blocking)."""
        if self._loop_thread is not None:
            return self
        self._loop_thread = threading.Thread(
            target=self._loop.run_forever, name="repro-server-loop", daemon=True
        )
        self._loop_thread.start()
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-server-http",
            daemon=True,
        )
        self._http_thread.start()
        return self

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — port resolved when config asked for 0."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def close(self) -> None:
        """Stop accepting, cancel in-flight work, release every resource."""
        if self._closing:
            return
        self._closing = True
        self._httpd.shutdown()
        with self._inflight_lock:
            pending = list(self._inflight.values())
        for future in pending:
            future.cancel()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            with self._active_lock:
                if self._active_requests == 0:
                    break
            time.sleep(0.02)
        with self._tenants_lock:
            tenants = list(self._tenants.values())
        for tenant in tenants:
            tenant.engine.close()
        if self._loop_thread is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._loop_thread.join(timeout=10.0)
        self._loop.close()
        if self._pool is not None:
            if isinstance(self._pool, CancellableProcessExecutor):
                self._pool.shutdown(wait=True, cancel_futures=True)
            else:
                self._pool.shutdown(wait=True)
        if self._owns_backend:
            close = getattr(self._backend, "close", None)
            if callable(close):
                close()
        self._httpd.server_close()

    def __enter__(self) -> "EvalServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Tenants and datasets
    # ------------------------------------------------------------------
    def _engine_pool(self) -> Any:
        return self._pool if self._pool is not None else "serial"

    def _tenant(self, name: str) -> _Tenant:
        with self._tenants_lock:
            tenant = self._tenants.get(name)
            if tenant is None:
                tenant = self._tenants[name] = _Tenant(name, self)
            return tenant

    def add_dataset(
        self, name: str, database: Database, *, tenant: str | None = None
    ) -> str:
        """Register a dataset (server-wide, or private to one tenant).

        The content fingerprint is computed once here, so requests skip
        re-hashing the database — the dominant per-request cost for
        cached evaluations of non-trivial databases.
        """
        fingerprint = database_fingerprint(database)
        with self._datasets_lock:
            self._datasets[(tenant, str(name))] = (database, fingerprint)
        return fingerprint

    def add_queries(self, queries: Mapping[str, Any]) -> None:
        """Merge named queries into the ``query_ref`` namespace."""
        merged = dict(self.config.queries)
        merged.update(queries)
        self.config.queries = merged

    def _dataset(self, tenant: str, name: str) -> tuple[Database, str]:
        with self._datasets_lock:
            entry = self._datasets.get((tenant, name))
            if entry is None:
                entry = self._datasets.get((None, name))
        if entry is None:
            raise LookupError(f"unknown dataset {name!r}")
        return entry

    def dataset_names(self, tenant: str) -> list[str]:
        with self._datasets_lock:
            return sorted(
                {
                    name
                    for owner, name in self._datasets
                    if owner is None or owner == tenant
                }
            )

    # ------------------------------------------------------------------
    # Request execution (event-loop side)
    # ------------------------------------------------------------------
    def _resolve_query(self, payload: Mapping[str, Any]) -> Any:
        if "query" in payload and payload["query"] is not None:
            return payload["query"]
        ref = payload.get("query_ref")
        if ref is None:
            raise ValueError("request needs 'query' (SQL) or 'query_ref' (name)")
        try:
            return self.config.queries[ref]
        except KeyError:
            raise LookupError(f"unknown query_ref {ref!r}") from None

    async def _evaluate_one(
        self,
        tenant: _Tenant,
        payload: Mapping[str, Any],
        admitted_at: float,
    ) -> dict[str, Any]:
        """Acquire an execution slot, evaluate, record metrics."""
        query = self._resolve_query(payload)
        database, fingerprint = self._dataset(
            tenant.name, str(payload.get("db", ""))
        )
        strategy = payload.get("strategy") or self.config.default_strategy
        settings = {**(payload.get("options") or {}), **_decode_settings(payload)}
        use_cache = settings.get("use_cache", True)
        outcome = "error"
        record = None
        try:
            async with self._exec_slots:
                queue_wait = time.perf_counter() - admitted_at
                started = time.perf_counter()
                result = await tenant.aengine.evaluate(
                    query,
                    database,
                    strategy=strategy,
                    database_fp=fingerprint if use_cache else None,
                    **settings,
                )
                execution = time.perf_counter() - started
            plan = result.metadata.get("plan") if isinstance(result.metadata, Mapping) else None
            ran = plan.get("strategy") if isinstance(plan, Mapping) else result.strategy
            outcome = "ok"
            record = RequestRecord(
                tenant=tenant.name,
                outcome="ok",
                queue_wait=queue_wait,
                execution=execution,
                total=time.perf_counter() - admitted_at,
                cache_hit=result.from_cache,
                strategy=ran,
            )
            return {
                "result": encode_result(result),
                "queue_wait": queue_wait,
                "execution": execution,
            }
        except DeadlineExceeded:
            outcome = "deadline"
            raise
        except asyncio.CancelledError:
            outcome = "cancelled"
            raise
        finally:
            if record is None:
                record = RequestRecord(tenant=tenant.name, outcome=outcome)
            self.metrics.record(record)

    async def _evaluate_batch(
        self,
        tenant: _Tenant,
        payload: Mapping[str, Any],
        admitted_at: float,
        out: "Any",
    ) -> dict[str, Any]:
        """Fan a batch out; push each item to ``out`` as it completes."""
        items = payload.get("queries")
        if not isinstance(items, list) or not items:
            raise ValueError("batch request needs a non-empty 'queries' list")
        shared = {
            key: payload[key]
            for key in ("db", "strategy", *WIRE_SETTINGS)
            if key in payload
        }
        completed = errors = 0

        async def run_item(index: int, item: Any) -> None:
            nonlocal completed, errors
            spec = dict(shared)
            if isinstance(item, Mapping):
                spec.update(item)
            else:
                spec["query"] = item
            try:
                answer = await self._evaluate_one(tenant, spec, admitted_at)
            except asyncio.CancelledError:
                raise
            except DeadlineExceeded as exc:
                errors += 1
                out.put({"index": index, "error": _message(exc), "deadline": True})
            except _ENGINE_ERRORS as exc:
                errors += 1
                out.put({"index": index, "error": _message(exc)})
            else:
                completed += 1
                out.put({"index": index, **answer})

        try:
            await asyncio.gather(
                *(run_item(i, item) for i, item in enumerate(items))
            )
        finally:
            out.put(None)  # sentinel: stream finished (even on cancel)
        return {"done": True, "completed": completed, "errors": errors}

    # ------------------------------------------------------------------
    # Handler-side plumbing (HTTP threads)
    # ------------------------------------------------------------------
    def submit(self, coro) -> concurrent.futures.Future:
        return asyncio.run_coroutine_threadsafe(coro, self._loop)

    def register_inflight(
        self, tenant: str, request_id: str, future: concurrent.futures.Future
    ) -> None:
        with self._inflight_lock:
            self._inflight[(tenant, request_id)] = future

    def unregister_inflight(self, tenant: str, request_id: str) -> None:
        with self._inflight_lock:
            self._inflight.pop((tenant, request_id), None)

    def cancel_inflight(self, tenant: str, request_id: str) -> bool:
        with self._inflight_lock:
            future = self._inflight.get((tenant, request_id))
        if future is None:
            return False
        return future.cancel()

    def note_rejected(self, tenant: str) -> None:
        self._rejected += 1
        self.metrics.record(RequestRecord(tenant=tenant, outcome="rejected"))

    def begin_request(self) -> None:
        with self._active_lock:
            self._active_requests += 1

    def end_request(self) -> None:
        with self._active_lock:
            self._active_requests -= 1

    def stats(self) -> dict[str, Any]:
        snapshot = self.metrics.snapshot()
        backend_stats = self._backend.stats
        snapshot["admission"] = {
            "capacity": self._admission.capacity,
            "in_flight": self._admission.in_flight,
            "max_concurrency": self.config.max_concurrency,
            "queue_limit": self.config.queue_limit,
            "rejected": self._rejected,
        }
        snapshot["backend"] = {
            "kind": type(self._backend).__name__,
            "size": backend_stats.size,
            "max_size": backend_stats.max_size,
        }
        snapshot["pool"] = {
            "kind": self.config.pool,
            "max_workers": self.config.max_workers,
        }
        with self._tenants_lock:
            snapshot["tenant_caches"] = {
                name: {
                    "hits": tenant.cache.stats.hits,
                    "misses": tenant.cache.stats.misses,
                }
                for name, tenant in self._tenants.items()
            }
        return snapshot


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    eval_server: EvalServer = None  # attached right after construction


def _message(exc: BaseException) -> str:
    text = str(exc)
    return text if text else type(exc).__name__


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: _HTTPServer

    # ------------------------------------------------------------------
    # Small helpers
    # ------------------------------------------------------------------
    @property
    def eval_server(self) -> EvalServer:
        return self.server.eval_server

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if self.eval_server.config.verbose:
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: Mapping[str, Any]) -> None:
        body = json.dumps(json_safe(payload)).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError, OSError):
            self.close_connection = True

    def _read_body(self) -> dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            return {}
        raw = self.rfile.read(length)
        payload = json.loads(raw.decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _tenant_name(self, payload: Mapping[str, Any]) -> str:
        return str(
            payload.get("tenant")
            or self.headers.get("X-Repro-Tenant")
            or DEFAULT_TENANT
        )

    def _client_gone(self) -> bool:
        """Has the peer half-closed (EOF readable) while we wait?"""
        try:
            self.connection.setblocking(False)
            try:
                data = self.connection.recv(1, socket.MSG_PEEK)
            finally:
                self.connection.setblocking(True)
        except (BlockingIOError, InterruptedError):
            return False  # alive, nothing to read
        except OSError:
            return True
        return data == b""

    def _await_future(
        self, future: concurrent.futures.Future
    ) -> tuple[str, Any]:
        """Wait for the loop-side result, watching the client socket.

        Returns ``("ok", value)``, ``("cancelled", None)`` — the request
        was cancelled via RPC — or ``("gone", None)`` when the client
        disconnected (the future is then cancelled here: disconnect *is*
        cancellation, and it propagates into the engine and its worker).
        """
        poll = self.eval_server.config.poll_interval
        while True:
            try:
                return "ok", future.result(timeout=poll)
            except concurrent.futures.TimeoutError:
                # concurrent.futures.TimeoutError IS builtin TimeoutError
                # (3.8+), so a DeadlineExceeded raised *by the coroutine*
                # lands here too — distinguishable because the future is
                # done.  Re-raise it for the 504 mapping; only a pending
                # future means the poll itself timed out.
                if future.done():
                    raise
                if self._client_gone():
                    future.cancel()
                    return "gone", None
            except concurrent.futures.CancelledError:
                return "cancelled", None

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler contract
        self.eval_server.begin_request()
        try:
            if self.path == "/healthz":
                self._send_json(
                    200, {"status": "ok", "breakers": breaker_snapshots()}
                )
            elif self.path == "/stats":
                self._send_json(200, self.eval_server.stats())
            elif self.path == "/metrics":
                # The process-wide engine metrics (repro.obs), distinct
                # from the per-request aggregation under /stats.
                self._send_json(200, obs_snapshot())
            elif self.path == "/strategies":
                from ..engine.registry import get_strategy

                self._send_json(
                    200,
                    {
                        "strategies": list(Engine.strategies()),
                        "default": self.eval_server.config.default_strategy,
                        "backends": {
                            name: list(get_strategy(name).supported_backends)
                            for name in Engine.strategies()
                        },
                        "default_backend": self.eval_server.config.backend,
                    },
                )
            elif self.path == "/datasets":
                tenant = self._tenant_name({})
                self._send_json(
                    200,
                    {
                        "datasets": self.eval_server.dataset_names(tenant),
                        "queries": sorted(self.eval_server.config.queries),
                    },
                )
            else:
                self._send_json(404, {"error": f"unknown path {self.path!r}"})
        finally:
            self.eval_server.end_request()

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler contract
        self.eval_server.begin_request()
        try:
            try:
                payload = self._read_body()
            except (ValueError, json.JSONDecodeError) as exc:
                self._send_json(400, {"error": f"bad request body: {exc}"})
                return
            if self.path == "/query":
                self._handle_query(payload)
            elif self.path == "/batch":
                self._handle_batch(payload)
            elif self.path == "/cancel":
                self._handle_cancel(payload)
            elif self.path == "/datasets":
                self._handle_register_dataset(payload)
            else:
                self._send_json(404, {"error": f"unknown path {self.path!r}"})
        finally:
            self.eval_server.end_request()

    # ------------------------------------------------------------------
    # POST /query
    # ------------------------------------------------------------------
    def _handle_query(self, payload: dict[str, Any]) -> None:
        server = self.eval_server
        tenant_name = self._tenant_name(payload)
        if server._closing:
            self._send_json(503, {"error": "shutting down"})
            return
        if not server._admission.try_acquire():
            server.note_rejected(tenant_name)
            self._send_json(
                429, {"error": "busy", "in_flight": server._admission.in_flight}
            )
            return
        request_id = payload.get("id")
        try:
            tenant = server._tenant(tenant_name)
            admitted_at = time.perf_counter()
            future = server.submit(
                server._evaluate_one(tenant, payload, admitted_at)
            )
            if request_id is not None:
                server.register_inflight(tenant_name, str(request_id), future)
            try:
                state, value = self._await_future(future)
            finally:
                if request_id is not None:
                    server.unregister_inflight(tenant_name, str(request_id))
            if state == "gone":
                self.close_connection = True
                return
            if state == "cancelled":
                self._send_json(409, {"error": "cancelled", "id": request_id})
                return
            self._send_json(200, {"id": request_id, **value})
        except DeadlineExceeded as exc:
            # Never folded into the 400s: a blown budget is a gateway
            # timeout, and the caller may well succeed with a bigger one.
            self._send_json(504, {"error": _message(exc), "id": request_id})
        except _ENGINE_ERRORS as exc:
            self._send_json(400, {"error": _message(exc)})
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            self._send_json(500, {"error": _message(exc)})
        finally:
            server._admission.release()

    # ------------------------------------------------------------------
    # POST /batch (chunked NDJSON stream)
    # ------------------------------------------------------------------
    def _write_chunk(self, line: Mapping[str, Any]) -> None:
        data = (json.dumps(json_safe(line)) + "\n").encode("utf-8")
        self.wfile.write(f"{len(data):X}\r\n".encode("ascii"))
        self.wfile.write(data + b"\r\n")
        self.wfile.flush()

    def _handle_batch(self, payload: dict[str, Any]) -> None:
        import queue as _queue

        server = self.eval_server
        tenant_name = self._tenant_name(payload)
        if server._closing:
            self._send_json(503, {"error": "shutting down"})
            return
        if not server._admission.try_acquire():
            server.note_rejected(tenant_name)
            self._send_json(429, {"error": "busy"})
            return
        request_id = payload.get("id")
        out: _queue.Queue = _queue.Queue()
        try:
            tenant = server._tenant(tenant_name)
            admitted_at = time.perf_counter()
            future = server.submit(
                server._evaluate_batch(tenant, payload, admitted_at, out)
            )
            if request_id is not None:
                server.register_inflight(tenant_name, str(request_id), future)
            try:
                self.send_response(200)
                self.send_header("Content-Type", "application/x-ndjson")
                self.send_header("Transfer-Encoding", "chunked")
                self.end_headers()
                while True:
                    try:
                        item = out.get(timeout=server.config.poll_interval)
                    except _queue.Empty:
                        if future.done() and out.empty():
                            break
                        continue
                    if item is None:
                        break
                    try:
                        self._write_chunk(item)
                    except (BrokenPipeError, ConnectionResetError, OSError):
                        # Client went away mid-stream: cancel everything
                        # still running for this batch.
                        future.cancel()
                        self.close_connection = True
                        return
                try:
                    summary = future.result(timeout=10.0)
                except concurrent.futures.CancelledError:
                    summary = {"done": True, "cancelled": True}
                except _ENGINE_ERRORS as exc:
                    summary = {"done": True, "error": _message(exc)}
                with contextlib.suppress(OSError):
                    self._write_chunk(summary)
                    self.wfile.write(b"0\r\n\r\n")
                    self.wfile.flush()
            finally:
                if request_id is not None:
                    server.unregister_inflight(tenant_name, str(request_id))
        finally:
            server._admission.release()

    # ------------------------------------------------------------------
    # POST /cancel, POST /datasets
    # ------------------------------------------------------------------
    def _handle_cancel(self, payload: dict[str, Any]) -> None:
        request_id = payload.get("id")
        if request_id is None:
            self._send_json(400, {"error": "cancel needs an 'id'"})
            return
        tenant = self._tenant_name(payload)
        cancelled = self.eval_server.cancel_inflight(tenant, str(request_id))
        self._send_json(200, {"cancelled": cancelled, "id": request_id})

    def _handle_register_dataset(self, payload: dict[str, Any]) -> None:
        name = payload.get("name")
        if not name:
            self._send_json(400, {"error": "dataset registration needs a 'name'"})
            return
        tenant = self._tenant_name(payload)
        try:
            database = decode_database(payload)
        except (ValueError, KeyError, TypeError) as exc:
            self._send_json(400, {"error": f"bad dataset payload: {exc}"})
            return
        fingerprint = self.eval_server.add_dataset(
            str(name), database, tenant=tenant
        )
        self._send_json(
            200, {"name": name, "tenant": tenant, "fingerprint": fingerprint}
        )


def serve(config: ServerConfig | None = None, **overrides: Any) -> EvalServer:
    """Create and start an :class:`EvalServer` (returns it running)."""
    return EvalServer(config, **overrides).start()
