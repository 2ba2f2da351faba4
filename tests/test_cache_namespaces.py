"""The one cache front over every store, and tenant namespaces.

Multi-tenant isolation contract: two
:class:`~repro.engine.cache.NamespacedCacheBackend` views with different
namespaces over ONE shared store never see each other's entries —
across every store kind (memory, disk).  Plus the front's bookkeeping,
written once in :class:`~repro.engine.cache.CacheBackend`: a lookup
through a view is counted, fault-injected and metered once, and an
injected fault is a miss in the stats and in the ``cache.misses`` metric
alike.
"""

from __future__ import annotations

import pytest

from repro.datamodel.database import Database
from repro.engine import Engine, EngineError, Session
from repro.engine.cache import (
    DiskCacheBackend,
    MemoryCacheBackend,
    NamespacedCacheBackend,
)
from repro.obs import metrics as obs_metrics
from repro.resilience import FaultPlan, FaultRule, faults_armed
from repro.server import EvalServer, ServerConfig


@pytest.fixture(params=["memory", "disk"])
def backend(request, tmp_path):
    if request.param == "memory":
        return MemoryCacheBackend(max_size=64)
    return DiskCacheBackend(tmp_path / "cache", max_entries=64)


def _counter(name: str, backend) -> float:
    return obs_metrics.global_registry().counter_value(name, backend=backend.name)


# ----------------------------------------------------------------------
# Namespace isolation, over every store kind
# ----------------------------------------------------------------------
def test_namespaces_do_not_share_entries(backend):
    alice = NamespacedCacheBackend(backend, "alice")
    bob = NamespacedCacheBackend(backend, "bob")
    alice.put(("q", "db"), {"rows": [1, 2]})
    assert alice.get(("q", "db")) == {"rows": [1, 2]}
    assert bob.get(("q", "db")) is None  # same key, other tenant: miss
    bob.put(("q", "db"), {"rows": [3]})
    assert alice.get(("q", "db")) == {"rows": [1, 2]}  # unclobbered
    assert bob.get(("q", "db")) == {"rows": [3]}


def test_namespace_views_track_their_own_hits_and_misses(backend):
    alice = NamespacedCacheBackend(backend, "alice")
    bob = NamespacedCacheBackend(backend, "bob")
    alice.put("k", "v")
    alice.get("k")
    bob.get("k")
    assert alice.stats.hits == 1 and alice.stats.misses == 0
    assert bob.stats.hits == 0 and bob.stats.misses == 1
    assert alice.stats.size == len(backend) == 1
    assert alice.stats.max_size == backend.max_size


def test_engines_sharing_backend_stay_isolated(backend):
    """Identical (query, db) under different tenants: both compute."""
    db = Database.from_dict({"R": (("a",), [(1,), (2,)])})
    alice = Engine(cache=NamespacedCacheBackend(backend, "alice"))
    bob = Engine(cache=NamespacedCacheBackend(backend, "bob"))
    try:
        first = alice.evaluate("SELECT a FROM R", db)
        again = alice.evaluate("SELECT a FROM R", db)
        other = bob.evaluate("SELECT a FROM R", db)
        assert first.from_cache is False
        assert again.from_cache is True  # same tenant: hit
        assert other.from_cache is False  # other tenant: isolated
        assert other.relation.sorted_rows() == first.relation.sorted_rows()
    finally:
        alice.close()
        bob.close()


def test_a_view_lookup_is_counted_and_metered_once(backend):
    """The view does the bookkeeping under the store's label; the shared
    store's own counters see none of it."""
    alice = NamespacedCacheBackend(backend, "alice")
    alice.put("k", "v")
    hits, misses = _counter("cache.hits", backend), _counter("cache.misses", backend)
    assert alice.get("k") == "v"
    assert alice.get("absent") is None
    assert _counter("cache.hits", backend) - hits == 1
    assert _counter("cache.misses", backend) - misses == 1
    assert (backend.stats.hits, backend.stats.misses) == (0, 0)


def test_an_injected_fault_is_one_miss_everywhere(backend):
    """A failing store is a miss in the stats *and* the metric, and a
    failing put drops the entry; the fault point fires once per call,
    through a view as well."""
    alice = NamespacedCacheBackend(backend, "alice")
    plan = FaultPlan(
        [
            FaultRule(point="cache.get", where={"backend": backend.name}),
            FaultRule(point="cache.put", where={"backend": backend.name}),
        ],
        seed=0,
    )
    for cache in (backend, alice):
        cache.put("k", "v")
        misses = _counter("cache.misses", backend)
        with faults_armed(plan):
            assert cache.get("k") is None
            cache.put("other", "w")
        assert _counter("cache.misses", backend) - misses == 1
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        assert cache.get("other") is None
        assert cache.get("k") == "v"
    assert plan.fire_counts() == {"cache.get": 2, "cache.put": 2}


def test_a_view_needs_a_store():
    """A duck-typed cache still serves an engine, but a tenant view (and
    so the server) needs a store's hooks; the server says so up front."""

    class _DuckTyped:
        enabled = True
        stats = None

        def get(self, key):
            return None

        def put(self, key, value):
            pass

        def clear(self):
            pass

    duck = _DuckTyped()
    with Engine(cache=duck) as engine:
        assert engine.cache is duck
    with pytest.raises(EngineError, match="CacheBackend store"):
        NamespacedCacheBackend(duck, "alice")
    with pytest.raises(EngineError, match="CacheBackend store"):
        EvalServer(ServerConfig(cache=duck))


def test_disk_spec_honours_cache_size(tmp_path):
    db = Database.from_dict({"R": (("a",), [(1,)])})
    with Session(db, cache=f"disk:{tmp_path / 'cache'}", cache_size=3) as session:
        assert session.cache_stats.max_size == 3
        for value in range(5):
            session.evaluate(f"SELECT a FROM R WHERE a = {value}", strategy="naive")
        assert len(session.engine.cache) == 3
