"""The pluggable result-cache backends (:mod:`repro.engine.cache`).

The contract under test: ``CacheBackend`` is the only surface the engine
touches, the in-memory LRU and the disk backend are interchangeable, and
the disk backend makes results survive where the ROADMAP asked them to —
across engines, sessions, and *processes* — keyed by the same content
fingerprints, so no invalidation semantics change.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro import Database, Engine, Null, Session
from repro.algebra import builder as rb
from repro.algebra.conditions import Attr, Eq, Literal
from repro.engine import (
    CacheBackend,
    DiskCacheBackend,
    EngineError,
    MemoryCacheBackend,
    QueryResult,
    resolve_cache_backend,
)
from repro.sharding import ShardedDatabase


@pytest.fixture
def db() -> Database:
    return Database.from_dict(
        {
            "R": (("a", "b"), [(1, 2), (Null("x"), 3)]),
            "S": (("c",), [(2,), (3,)]),
        }
    )


QUERY = rb.select(rb.relation("R"), Eq(Attr("b"), Literal(3)))


class TestResolveBackend:
    def test_default_is_the_memory_lru(self):
        backend = resolve_cache_backend(None, cache_size=7)
        assert isinstance(backend, MemoryCacheBackend)
        assert backend.max_size == 7

    def test_disk_spec_builds_a_disk_backend(self, tmp_path):
        backend = resolve_cache_backend(f"disk:{tmp_path / 'cache'}")
        assert isinstance(backend, DiskCacheBackend)
        assert backend.path.is_dir()

    def test_instances_pass_through(self, tmp_path):
        backend = DiskCacheBackend(tmp_path)
        assert resolve_cache_backend(backend) is backend

    @pytest.mark.parametrize("bad", ["disk:", "redis://x", 42])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(EngineError):
            resolve_cache_backend(bad)

    def test_partial_duck_typed_backend_fails_fast_with_names(self):
        # get/put alone is not enough — the engine also needs
        # clear/enabled/stats; the resolver must say so up front instead
        # of leaving an AttributeError for the first evaluate().
        class _TwoMethods:
            def get(self, key):
                return None

            def put(self, key, value):
                pass

        with pytest.raises(EngineError, match="clear/enabled/stats"):
            resolve_cache_backend(_TwoMethods())


class TestDiskBackend:
    def test_round_trip_preserves_query_results(self, tmp_path, db):
        result = Engine().evaluate(QUERY, db, strategy="naive", use_cache=False)
        backend = DiskCacheBackend(tmp_path)
        key = ("q-fp", "db-fp", "naive", "set", ())
        backend.put(key, result)
        restored = backend.get(key)
        assert isinstance(restored, QueryResult)
        assert restored.relation.rows_bag() == result.relation.rows_bag()
        assert restored.tuples == result.tuples
        assert restored.metadata == result.metadata
        assert len(backend) == 1

    def test_get_is_a_miss_on_unknown_and_corrupt_entries(self, tmp_path):
        backend = DiskCacheBackend(tmp_path)
        assert backend.get(("nope",)) is None
        # A torn/corrupt entry must degrade to a miss, not an error.
        entry = backend._entry_path(("torn",))
        entry.write_bytes(b"not a pickle")
        assert backend.get(("torn",)) is None
        # An entry pickled by an incompatible version whose class module
        # no longer exists must be a miss too (regression: raised
        # ModuleNotFoundError through evaluate()).
        stale = backend._entry_path(("stale",))
        stale.write_bytes(b"cno_such_repro_module\nNope\n.")
        assert backend.get(("stale",)) is None
        stats = backend.stats
        assert stats.misses == 3 and stats.hits == 0

    def test_eviction_drops_the_least_recently_used_entry(self, tmp_path):
        backend = DiskCacheBackend(tmp_path, max_entries=2)
        backend.put(("k1",), "v1")
        backend.put(("k2",), "v2")
        # Make the LRU order unambiguous on coarse filesystem clocks.
        os.utime(backend._entry_path(("k1",)), (1, 1))
        backend.put(("k3",), "v3")
        assert len(backend) == 2
        assert backend.get(("k1",)) is None
        assert backend.get(("k2",)) == "v2"
        assert backend.get(("k3",)) == "v3"

    def test_zero_entries_disables_the_backend(self, tmp_path):
        backend = DiskCacheBackend(tmp_path, max_entries=0)
        assert not backend.enabled
        engine = Engine(cache=backend)
        assert not engine.cache_enabled

    def test_clear_resets_epoch_and_keeps_lifetime(self, tmp_path):
        backend = DiskCacheBackend(tmp_path)
        backend.put(("k",), "v")
        assert backend.get(("k",)) == "v"
        assert backend.get(("gone",)) is None
        backend.clear()
        assert len(backend) == 0
        assert backend.stats.hits == 0 and backend.stats.misses == 0
        assert backend.lifetime_stats.hits == 1
        assert backend.lifetime_stats.misses == 1

    def test_unpicklable_values_stay_uncached(self, tmp_path):
        backend = DiskCacheBackend(tmp_path)
        backend.put(("k",), lambda: None)  # silently skipped
        assert len(backend) == 0

    def test_clear_sweeps_orphaned_temp_files(self, tmp_path):
        backend = DiskCacheBackend(tmp_path)
        backend.put(("k",), "v")
        # A writer that died between mkstemp and os.replace leaves this.
        (tmp_path / "orphanxyz.tmp").write_bytes(b"partial")
        backend.clear()
        assert list(tmp_path.iterdir()) == []

    def test_is_a_cache_backend(self, tmp_path):
        assert isinstance(DiskCacheBackend(tmp_path), CacheBackend)
        assert isinstance(MemoryCacheBackend(4), CacheBackend)


class TestEngineIntegration:
    def test_cross_engine_hit_within_one_process(self, tmp_path, db):
        spec = f"disk:{tmp_path / 'cache'}"
        with Engine(cache=spec) as first:
            miss = first.evaluate(QUERY, db, strategy="naive")
            assert not miss.from_cache
        with Engine(cache=spec) as second:
            hit = second.evaluate(QUERY, db, strategy="naive")
            assert hit.from_cache
            assert hit.relation.rows_bag() == miss.relation.rows_bag()
            assert second.cache_stats.hits == 1

    def test_session_accepts_cache_spec_and_auto_shares_entries(self, tmp_path, db):
        spec = f"disk:{tmp_path / 'cache'}"
        with Session(db, cache=spec) as session:
            session.naive(QUERY)
        with Session(db, cache=spec) as session:
            hit = session.auto(QUERY)
            assert hit.from_cache
            assert hit.metadata["plan"]["strategy"] == "naive"

    def test_database_mutation_misses_by_fingerprint(self, tmp_path, db):
        spec = f"disk:{tmp_path / 'cache'}"
        with Engine(cache=spec) as engine:
            engine.evaluate(QUERY, db, strategy="naive")
            mutated = db.with_relation(
                "R", db["R"].add_rows([(9, 3)])
            )
            again = engine.evaluate(QUERY, mutated, strategy="naive")
            assert not again.from_cache

    def test_sharded_partials_persist_across_engines(self, tmp_path, db):
        spec = f"disk:{tmp_path / 'cache'}"
        sharded = ShardedDatabase.from_database(db, 2)
        with Engine(cache=spec) as first:
            cold = first.evaluate(QUERY, sharded, strategy="naive")
            assert cold.metadata["sharding"]["mode"] == "distributed"
            assert cold.metadata["sharding"]["partial_cache_hits"] == 0
        with Engine(cache=spec) as second:
            warm = second.evaluate(QUERY, sharded, strategy="naive")
            assert warm.metadata["sharding"]["partial_cache_hits"] == 2
            assert warm.relation.rows_bag() == cold.relation.rows_bag()


_SUBPROCESS_SCRIPT = textwrap.dedent(
    """
    import sys
    from repro import Database, Engine, Null
    from repro.algebra import builder as rb
    from repro.algebra.conditions import Attr, Eq, Literal

    db = Database.from_dict(
        {
            "R": (("a", "b"), [(1, 2), (Null("x"), 3)]),
            "S": (("c",), [(2,), (3,)]),
        }
    )
    query = rb.select(rb.relation("R"), Eq(Attr("b"), Literal(3)))
    with Engine(cache="disk:" + sys.argv[1]) as engine:
        result = engine.evaluate(query, db, strategy="naive")
        print("from_cache=" + str(result.from_cache))
        print("rows=" + repr(sorted(result.relation.rows_set(), key=str)))
    """
)


def test_cross_process_hit(tmp_path):
    """A fresh *process* on the same directory gets a cache hit."""
    cache_dir = str(tmp_path / "cache")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    def run() -> dict:
        proc = subprocess.run(
            [sys.executable, "-c", _SUBPROCESS_SCRIPT, cache_dir],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        lines = dict(
            line.split("=", 1) for line in proc.stdout.strip().splitlines()
        )
        return lines

    first = run()
    second = run()
    assert first["from_cache"] == "False"
    assert second["from_cache"] == "True"
    assert first["rows"] == second["rows"]
