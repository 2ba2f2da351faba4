"""``repro.server`` — a multi-tenant evaluation service over the engine.

One long-running process hosts the engine stack behind a stdlib
HTTP/JSON front end: per-tenant cache namespaces over a shared backend,
bounded admission with 429 backpressure, chunked NDJSON streaming for
batches, and cancellation that reaches in-flight worker processes (and
never populates the cache).  See :mod:`repro.server.service` for the
architecture, :mod:`repro.server.client` for the matching client, and
``python -m repro.server`` to run one.
"""

from .client import ServerBusyError, ServerClient, ServerRequestError
from ..obs.metrics import RequestRecord, ServerMetrics, percentile
from .service import DEFAULT_TENANT, EvalServer, ServerConfig, serve

__all__ = [
    "DEFAULT_TENANT",
    "EvalServer",
    "RequestRecord",
    "ServerBusyError",
    "ServerClient",
    "ServerConfig",
    "ServerMetrics",
    "ServerRequestError",
    "percentile",
    "serve",
]
