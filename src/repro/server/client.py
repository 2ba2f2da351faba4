"""A small stdlib client for the evaluation service.

:class:`ServerClient` wraps ``http.client`` — one keep-alive connection,
JSON in/out, and an iterator over the server's chunked NDJSON batch
stream so callers consume results in completion order:

    with ServerClient("127.0.0.1", 8080, tenant="alice") as client:
        client.register_dataset("toy", database)
        answer = client.query("SELECT a FROM R", db="toy")
        for item in client.batch(["SELECT ...", "SELECT ..."], db="toy"):
            ...

``cancel()`` needs a *second* connection (the first is blocked inside
the pending request), so it opens a one-shot connection of its own.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any, Iterator, Mapping

from ..datamodel.database import Database
from ..resilience import RetryPolicy, resolve_retry
from .service import WIRE_SETTINGS
from .wire import encode_database

__all__ = [
    "ServerClient",
    "ServerRequestError",
    "ServerBusyError",
    "ServerTimeoutError",
]


class ServerRequestError(RuntimeError):
    """The server answered with an error status."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServerBusyError(ServerRequestError):
    """Admission control rejected the request (HTTP 429)."""


class ServerTimeoutError(ServerRequestError):
    """The request blew its ``timeout_ms`` budget (HTTP 504)."""


class ServerClient:
    """One tenant's connection to an :class:`~repro.server.EvalServer`."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        tenant: str | None = None,
        timeout: float = 60.0,
        retry: RetryPolicy | bool | None = None,
    ):
        self.host = host
        self.port = port
        self.tenant = tenant
        self.timeout = timeout
        #: Applied to *idempotent* requests (GETs, ``/query``,
        #: ``/datasets``) whose connection died before a response came
        #: back — evaluation is read-only and dataset registration is
        #: content-keyed, so replaying them is safe.  ``retry=False``
        #: disables; the default is a small capped-backoff policy.
        self.retry = resolve_retry(retry)
        self._conn: http.client.HTTPConnection | None = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.tenant is not None:
            headers["X-Repro-Tenant"] = self.tenant
        return headers

    @staticmethod
    def _raise_for_status(status: int, payload: Mapping[str, Any]) -> None:
        message = str(payload.get("error", payload))
        if status == 429:
            raise ServerBusyError(status, message)
        if status == 504:
            raise ServerTimeoutError(status, message)
        raise ServerRequestError(status, message)

    def _request(
        self,
        method: str,
        path: str,
        body: Mapping[str, Any] | None = None,
        *,
        idempotent: bool | None = None,
    ) -> dict[str, Any]:
        if idempotent is None:
            idempotent = method == "GET"
        policy = self.retry if idempotent else None
        attempts = 0
        while True:
            try:
                return self._request_once(method, path, body)
            except ServerRequestError:
                raise  # the server answered; nothing transient about that
            except (http.client.HTTPException, OSError) as exc:
                attempts += 1
                if (
                    policy is None
                    or attempts >= policy.max_attempts
                    or not policy.is_retryable(exc)
                ):
                    raise
                self.close()
                time.sleep(policy.delay(attempts))

    def _request_once(
        self, method: str, path: str, body: Mapping[str, Any] | None = None
    ) -> dict[str, Any]:
        with self._lock:
            conn = self._connection()
            data = json.dumps(body).encode("utf-8") if body is not None else None
            try:
                conn.request(method, path, body=data, headers=self._headers())
                response = conn.getresponse()
                raw = response.read()
            except (http.client.HTTPException, OSError):
                # Stale keep-alive connection: reconnect once.  (The
                # request never reached the server on a dead keep-alive,
                # so this is safe even for non-idempotent POSTs.)
                self.close()
                conn = self._connection()
                conn.request(method, path, body=data, headers=self._headers())
                response = conn.getresponse()
                raw = response.read()
            payload = json.loads(raw.decode("utf-8")) if raw else {}
            if response.status >= 400:
                self._raise_for_status(response.status, payload)
            return payload

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def healthz(self) -> dict[str, Any]:
        return self._request("GET", "/healthz")

    def stats(self) -> dict[str, Any]:
        return self._request("GET", "/stats")

    def strategies(self) -> list[str]:
        return list(self._request("GET", "/strategies")["strategies"])

    def datasets(self) -> dict[str, Any]:
        return self._request("GET", "/datasets")

    def register_dataset(self, name: str, database: Database) -> str:
        """Upload a tenant-private dataset; returns its fingerprint."""
        payload = {"name": name, **encode_database(database)}
        return str(
            self._request("POST", "/datasets", payload, idempotent=True)[
                "fingerprint"
            ]
        )

    def query(
        self,
        query: Any = None,
        *,
        db: str,
        query_ref: str | None = None,
        strategy: str | None = None,
        request_id: str | None = None,
        **settings: Any,
    ) -> dict[str, Any]:
        """Evaluate one query; returns the decoded response object.

        Keywords naming a wire setting (the server's
        :data:`~repro.server.service.WIRE_SETTINGS`: ``semantics``,
        ``use_cache``, ``optimize``, ``backend``, ``timeout_ms``,
        ``on_shard_error``, ``trace``) travel as request keys; any other
        keyword is a strategy option.  ``timeout_ms`` caps the
        server-side evaluation wall clock (the server answers 504,
        raised here as :class:`ServerTimeoutError`).
        """
        payload = _payload(db, strategy, request_id, settings)
        if query is not None:
            payload["query"] = query
        if query_ref is not None:
            payload["query_ref"] = query_ref
        if settings:
            payload["options"] = settings
        # Evaluation is read-only, so a replay after a dead connection
        # is safe.
        return self._request("POST", "/query", payload, idempotent=True)

    def batch(
        self,
        queries: list[Any],
        *,
        db: str,
        strategy: str | None = None,
        request_id: str | None = None,
        **settings: Any,
    ) -> Iterator[dict[str, Any]]:
        """Stream batch results as the server finishes them.

        Takes the wire settings :meth:`query` does, applied to every
        item (an item may be a request object of its own, e.g. with
        ``"options"``).  Yields one dict per query (``{"index": i,
        "result": ...}`` or ``{"index": i, "error": ...}``) followed by
        the summary line (``{"done": true, ...}``).  The stream must be
        consumed from a single thread.
        """
        payload = _payload(db, strategy, request_id, settings)
        if settings:
            name = next(iter(settings))
            raise TypeError(f"batch() got an unexpected keyword argument {name!r}")
        payload["queries"] = queries
        with self._lock:
            conn = self._connection()
            conn.request(
                "POST",
                "/batch",
                body=json.dumps(payload).encode("utf-8"),
                headers=self._headers(),
            )
            response = conn.getresponse()
            if response.status >= 400:
                raw = response.read()
                body = json.loads(raw.decode("utf-8")) if raw else {}
                self._raise_for_status(response.status, body)
            # http.client undoes the chunked framing; NDJSON lines remain.
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))

    def cancel(self, request_id: str) -> bool:
        """Cancel an in-flight request by id (uses a fresh connection)."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            conn.request(
                "POST",
                "/cancel",
                body=json.dumps({"id": request_id}).encode("utf-8"),
                headers=self._headers(),
            )
            response = conn.getresponse()
            payload = json.loads(response.read().decode("utf-8"))
            return bool(payload.get("cancelled"))
        finally:
            conn.close()


def _payload(
    db: str, strategy: str | None, request_id: str | None, settings: dict[str, Any]
) -> dict[str, Any]:
    """The request keys shared by ``/query`` and ``/batch``; the wire
    settings are popped off ``settings``."""
    payload: dict[str, Any] = {"db": db, "use_cache": True}
    if strategy is not None:
        payload["strategy"] = strategy
    if request_id is not None:
        payload["id"] = request_id
    for key in WIRE_SETTINGS:
        value = settings.pop(key, None)
        if value is not None:
            payload[key] = value
    return payload
