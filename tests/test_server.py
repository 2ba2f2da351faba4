"""End-to-end tests of the multi-tenant evaluation service.

Everything here exercises the real wire path: an
:class:`~repro.server.EvalServer` bound to an ephemeral port, talked to
through :class:`~repro.server.ServerClient` over HTTP — admission
control, tenant cache isolation, streaming batches, cancellation (the
"cancelled request never lands in the cache" guarantee), per-request
metrics, and leak-free shutdown.
"""

from __future__ import annotations

import multiprocessing
import threading
import time

import pytest

from repro.datamodel.database import Database
from repro.datamodel.relation import Relation
from repro.engine.registry import (
    EvaluationStrategy,
    StrategyCapabilities,
    StrategyOutcome,
    register_strategy,
    unregister_strategy,
)
from repro.server import (
    EvalServer,
    ServerBusyError,
    ServerClient,
    ServerConfig,
    ServerRequestError,
)


@pytest.fixture
def toy_db() -> Database:
    return Database.from_dict(
        {"R": (("a", "b"), [(1, 10), (2, 20), (3, 30)])}
    )


@pytest.fixture
def server(toy_db):
    with EvalServer(
        ServerConfig(pool="thread", max_workers=2, datasets={"toy": toy_db})
    ) as srv:
        yield srv


@pytest.fixture
def client(server):
    host, port = server.address
    with ServerClient(host, port, tenant="alice") as c:
        yield c


@pytest.fixture
def sleep_strategy():
    """A registered strategy that sleeps ``delay`` seconds, then answers."""

    @register_strategy("test-server-sleep")
    class _SleepStrategy(EvaluationStrategy):
        capabilities = StrategyCapabilities(semantics=("set",))

        def run(self, query, database, *, semantics, **options):
            time.sleep(float(options.get("delay", 1.0)))
            return StrategyOutcome(answer=Relation(("a",), [(1,)]))

    yield "test-server-sleep"
    unregister_strategy("test-server-sleep")


# ----------------------------------------------------------------------
# Basic round trips
# ----------------------------------------------------------------------
def test_health_strategies_and_unknown_path(client):
    health = client.healthz()
    assert health["status"] == "ok"
    assert isinstance(health["breakers"], dict)
    assert "naive" in client.strategies()
    listing = client._request("GET", "/strategies")
    assert listing["default_backend"] == "auto"
    assert listing["backends"]["naive"] == ["interpreter", "sqlite"]
    assert listing["backends"]["approx-libkin16"] == ["interpreter"]
    with pytest.raises(ServerRequestError) as excinfo:
        client._request("GET", "/nope")
    assert excinfo.value.status == 404


def test_per_request_backend_override(client):
    for backend in ("sqlite", "interpreter"):
        answer = client.query(
            "SELECT a FROM R",
            db="toy",
            strategy="naive",
            use_cache=False,
            backend=backend,
        )
        assert answer["result"]["rows"] == [[1], [2], [3]]
        note = answer["result"]["metadata"]["backend"]
        assert note["requested"] == backend and note["resolved"] == backend


def test_query_roundtrip_and_cache_hit(client):
    first = client.query("SELECT a FROM R", db="toy")
    assert first["result"]["rows"] == [[1], [2], [3]]
    assert first["result"]["from_cache"] is False
    assert first["queue_wait"] >= 0.0 and first["execution"] > 0.0
    second = client.query("SELECT a FROM R", db="toy")
    assert second["result"]["from_cache"] is True


def test_auto_strategy_reports_plan(client):
    answer = client.query("SELECT a FROM R", db="toy", strategy="auto")
    plan = answer["result"]["metadata"]["plan"]
    assert plan["strategy"] in client.strategies()
    assert plan["reason"]


def test_unknown_dataset_and_bad_sql_are_client_errors(client):
    with pytest.raises(ServerRequestError) as excinfo:
        client.query("SELECT a FROM R", db="nope")
    assert excinfo.value.status == 400
    assert "nope" in excinfo.value.message
    with pytest.raises(ServerRequestError) as excinfo:
        client.query("NOT EVEN SQL", db="toy")
    assert excinfo.value.status == 400


@pytest.mark.parametrize(
    "settings",
    [{"timeout_ms": float("nan")}, {"use_cache": "false"}, {"optimize": 0}, {"trace": "yes"}],
    ids=["nan-timeout", "string-use-cache", "int-optimize", "string-trace"],
)
def test_nan_timeout_and_non_boolean_flags_are_client_errors(client, settings):
    # json.loads accepts NaN, and bool("false") is True: both used to
    # slip through the wire decoding.
    with pytest.raises(ServerRequestError) as excinfo:
        client.query("SELECT a FROM R", db="toy", **settings)
    assert excinfo.value.status == 400


# ----------------------------------------------------------------------
# Tenants
# ----------------------------------------------------------------------
def test_tenant_caches_are_isolated(server, client):
    host, port = server.address
    warmed = client.query("SELECT b FROM R", db="toy")
    assert warmed["result"]["from_cache"] is False
    with ServerClient(host, port, tenant="bob") as bob:
        cold = bob.query("SELECT b FROM R", db="toy")
        assert cold["result"]["from_cache"] is False  # no cross-tenant hits
        assert cold["result"]["rows"] == warmed["result"]["rows"]
    again = client.query("SELECT b FROM R", db="toy")
    assert again["result"]["from_cache"] is True


def test_uploaded_datasets_are_tenant_private(server, client):
    host, port = server.address
    mine = Database.from_dict({"S": (("x",), [(7,), (8,)])})
    fingerprint = client.register_dataset("mine", mine)
    assert fingerprint
    assert "mine" in client.datasets()["datasets"]
    answer = client.query("SELECT x FROM S", db="mine")
    assert answer["result"]["rows"] == [[7], [8]]
    with ServerClient(host, port, tenant="bob") as bob:
        assert "mine" not in bob.datasets()["datasets"]
        with pytest.raises(ServerRequestError) as excinfo:
            bob.query("SELECT x FROM S", db="mine")
        assert excinfo.value.status == 400


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
def test_admission_rejects_above_capacity(toy_db, sleep_strategy):
    with EvalServer(
        ServerConfig(
            pool="thread",
            max_workers=1,
            max_concurrency=1,
            queue_limit=0,
            datasets={"toy": toy_db},
        )
    ) as srv:
        host, port = srv.address
        slow = ServerClient(host, port, tenant="alice")
        fast = ServerClient(host, port, tenant="alice")
        done = threading.Event()

        def occupy():
            try:
                slow.query(
                    "SELECT a FROM R", db="toy", strategy=sleep_strategy,
                    delay=3.0, use_cache=False,
                )
            except ServerRequestError:
                pass
            finally:
                done.set()

        thread = threading.Thread(target=occupy)
        thread.start()
        try:
            deadline = time.monotonic() + 5
            while srv._admission.in_flight == 0:
                assert time.monotonic() < deadline, "first request never admitted"
                time.sleep(0.01)
            with pytest.raises(ServerBusyError) as excinfo:
                fast.query("SELECT a FROM R", db="toy")
            assert excinfo.value.status == 429
            stats = fast.stats()
            assert stats["admission"]["rejected"] >= 1
            assert stats["requests"].get("rejected", 0) >= 1
        finally:
            thread.join(timeout=10)
            slow.close()
            fast.close()
        assert done.is_set()


# ----------------------------------------------------------------------
# Streaming batches
# ----------------------------------------------------------------------
def test_batch_streams_results_with_summary(client):
    items = list(
        client.batch(
            ["SELECT a FROM R", "SELECT b FROM R", "SELECT zzz FROM R"],
            db="toy",
        )
    )
    summary = items[-1]
    assert summary["done"] is True
    assert summary["completed"] == 2 and summary["errors"] == 1
    by_index = {item["index"]: item for item in items[:-1]}
    assert by_index[0]["result"]["rows"] == [[1], [2], [3]]
    assert by_index[1]["result"]["rows"] == [[10], [20], [30]]
    assert "error" in by_index[2]


def test_batch_sends_every_wire_setting(client):
    items = list(
        client.batch(
            ["SELECT a FROM R"],
            db="toy",
            strategy="naive",
            use_cache=False,
            backend="interpreter",
            trace=True,
        )
    )
    metadata = items[0]["result"]["metadata"]
    assert metadata["backend"]["requested"] == "interpreter"
    assert metadata["backend"]["resolved"] == "interpreter"
    assert metadata["trace"]["name"] == "evaluate"
    with pytest.raises(TypeError, match="variant"):
        list(client.batch(["SELECT a FROM R"], db="toy", variant="aware"))


def test_batch_streams_in_completion_order(toy_db, sleep_strategy):
    with EvalServer(
        ServerConfig(
            pool="thread",
            max_workers=2,
            max_concurrency=4,
            datasets={"toy": toy_db},
        )
    ) as srv:
        host, port = srv.address
        with ServerClient(host, port, tenant="alice") as c:
            items = list(
                c.batch(
                    [
                        {"query": "SELECT a FROM R", "options": {"delay": 0.8}},
                        {"query": "SELECT b FROM R", "options": {"delay": 0.05}},
                    ],
                    db="toy",
                    strategy=sleep_strategy,
                    use_cache=False,
                )
            )
        order = [item["index"] for item in items if "index" in item]
        # The fast query (index 1) must arrive before the slow one: the
        # stream is completion-ordered, not input-ordered.
        assert order == [1, 0]


# ----------------------------------------------------------------------
# Cancellation
# ----------------------------------------------------------------------
def test_cancel_rpc_returns_409_and_skips_cache(toy_db, sleep_strategy):
    with EvalServer(
        ServerConfig(pool="thread", max_workers=2, datasets={"toy": toy_db})
    ) as srv:
        host, port = srv.address
        blocked = ServerClient(host, port, tenant="alice")
        control = ServerClient(host, port, tenant="alice")
        outcome = {}

        def issue():
            try:
                outcome["response"] = blocked.query(
                    "SELECT a FROM R", db="toy", strategy=sleep_strategy,
                    request_id="victim", delay=5.0,
                )
            except ServerRequestError as exc:
                outcome["status"] = exc.status

        thread = threading.Thread(target=issue)
        thread.start()
        try:
            deadline = time.monotonic() + 5
            while ("alice", "victim") not in srv._inflight:
                assert time.monotonic() < deadline, "request never registered"
                time.sleep(0.01)
            time.sleep(0.2)  # let the evaluation reach the worker
            assert control.cancel("victim") is True
            thread.join(timeout=10)
            assert outcome.get("status") == 409
            # THE guarantee: the cancelled result never entered alice's
            # cache — an identical query recomputes (and takes its time).
            start = time.perf_counter()
            rerun = control.query(
                "SELECT a FROM R", db="toy", strategy=sleep_strategy, delay=0.3
            )
            elapsed = time.perf_counter() - start
            assert rerun["result"]["from_cache"] is False
            assert elapsed >= 0.3
            assert control.stats()["requests"].get("cancelled", 0) >= 1
        finally:
            thread.join(timeout=10)
            blocked.close()
            control.close()


def test_cancel_unknown_id_is_a_noop(client):
    assert client.cancel("never-issued") is False


def test_cancel_reaches_worker_process(toy_db, sleep_strategy):
    """With the process pool, cancel terminates the worker mid-task."""
    with EvalServer(
        ServerConfig(
            pool="process", max_workers=1, datasets={"toy": toy_db}
        )
    ) as srv:
        host, port = srv.address
        blocked = ServerClient(host, port, tenant="alice")
        control = ServerClient(host, port, tenant="alice")
        outcome = {}

        def issue():
            try:
                blocked.query(
                    "SELECT a FROM R", db="toy", strategy=sleep_strategy,
                    request_id="victim", delay=30.0,
                )
            except ServerRequestError as exc:
                outcome["status"] = exc.status

        thread = threading.Thread(target=issue)
        thread.start()
        try:
            deadline = time.monotonic() + 10
            while not srv._pool.worker_pids():
                assert time.monotonic() < deadline, "worker never spawned"
                time.sleep(0.02)
            time.sleep(0.3)
            before = srv._pool.worker_pids()
            start = time.monotonic()
            assert control.cancel("victim") is True
            thread.join(timeout=10)
            assert outcome.get("status") == 409
            assert time.monotonic() - start < 20  # did not wait out the sleep
            # The replaced worker serves the next request promptly.
            answer = control.query("SELECT a FROM R", db="toy", strategy="naive")
            assert answer["result"]["rows"] == [[1], [2], [3]]
            assert srv._pool.worker_pids() != before
        finally:
            thread.join(timeout=10)
            blocked.close()
            control.close()
    assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# Metrics and shutdown
# ----------------------------------------------------------------------
def test_stats_reports_latency_cache_and_admission(client):
    client.query("SELECT a FROM R", db="toy")
    client.query("SELECT a FROM R", db="toy")
    stats = client.stats()
    assert stats["completed"] >= 2
    assert stats["qps"] > 0.0
    assert stats["cache"]["hits"] >= 1
    assert 0.0 < stats["cache"]["hit_rate"] <= 1.0
    for section in ("latency", "queue_wait", "execution"):
        summary = stats[section]
        assert summary["count"] >= 2
        assert summary["p50"] <= summary["p99"] <= summary["max"] + 1e-9
    assert stats["admission"]["capacity"] > 0
    assert stats["tenants"].get("alice", 0) >= 2
    assert stats["strategies"].get("naive", 0) >= 1
    assert stats["tenant_caches"]["alice"]["hits"] >= 1


def test_shutdown_is_clean_and_leakfree(toy_db):
    server = EvalServer(
        ServerConfig(pool="process", max_workers=1, datasets={"toy": toy_db})
    ).start()
    host, port = server.address
    with ServerClient(host, port, tenant="alice") as c:
        assert c.query("SELECT a FROM R", db="toy")["result"]["rows"]
    server.close()
    assert multiprocessing.active_children() == []
    with pytest.raises(OSError):
        with ServerClient(host, port) as c:
            c.healthz()
    server.close()  # idempotent
