"""The result cache and the database fingerprint.

Results are cached under ``(query fingerprint, database fingerprint,
strategy, semantics, options)``.  Databases carry no version counter, so
the fingerprint is a content hash: a canonical serialisation of every
relation (name, attributes, rows with multiplicities, nulls rendered by
label).  Hashing is linear in the data but orders of magnitude cheaper
than any of the evaluation strategies; sessions additionally memoise the
fingerprint of their bound database so repeated calls pay it once.

:class:`CacheBackend` is the one front, over two stores and a view:

* :class:`MemoryCacheBackend` — a thread-safe in-process LRU;
* :class:`DiskCacheBackend` — one pickle file per entry under a
  directory, so results survive across sessions *and processes*.  Keys
  are the same content fingerprints, so no invalidation semantics
  change: mutating the database changes its fingerprint and simply
  misses.
* :class:`NamespacedCacheBackend` — a per-namespace view over either
  store, isolating tenants that share one physical store.

Engines accept a backend spec anywhere a cache is configured:
``Engine(cache="disk:/path/to/dir")``, ``Session(db, cache=backend)``;
see :func:`resolve_cache_backend`.
"""

from __future__ import annotations

import enum
import hashlib
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from collections.abc import Mapping
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Hashable

from ..datamodel.database import Database
from ..datamodel.relation import Relation
from ..datamodel.values import Null
from ..obs import metrics as obs_metrics
from ..resilience import InjectedFault, fault_point
from .errors import EngineError

__all__ = [
    "CacheStats",
    "CacheBackend",
    "MemoryCacheBackend",
    "DiskCacheBackend",
    "NamespacedCacheBackend",
    "resolve_cache_backend",
    "canonical_value",
    "canonical_option_value",
    "canonical_options",
    "evaluation_cache_key",
    "relation_fingerprint",
    "database_fingerprint",
]


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of a :class:`CacheBackend`."""

    hits: int
    misses: int
    size: int
    max_size: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class CacheBackend:
    """The result cache: one front over a store's four hooks.

    The engine (sync and async twins, and the sharded evaluator's
    partial-result cache) only ever calls this surface:

    * ``get(key) -> value | None`` — ``None`` is a miss;
    * ``put(key, value)`` — best-effort store (a disabled or full
      backend may drop the entry);
    * ``clear()`` — drop every entry, reset the stats epoch;
    * ``stats`` / ``lifetime_stats`` — :class:`CacheStats` counters;
    * ``enabled`` — a disabled backend (``max_size`` 0) is skipped
      entirely;
    * ``__len__`` — current entry count.

    The front does the bookkeeping once for every store: the epoch and
    lifetime hit/miss counters, the ``cache.get``/``cache.put`` fault
    points and the ``cache.hits``/``cache.misses``/``cache.evictions``
    metrics, all labelled ``backend=<name>``.  The cache is best-effort:
    an injected fault on ``get`` is a miss and on ``put`` drops the
    entry, never an error.  A store implements the hooks ``_load(key)``
    (the value, or ``None``), ``_save(key, value)`` (returning how many
    entries it evicted), ``_drop_all()`` and ``_size()``, each
    thread-safe on its own: the thread shard executor and
    :class:`~repro.engine.aio.AsyncEngine` worker callbacks share one
    backend.  Values are opaque (the engine stores
    :class:`~repro.engine.result.QueryResult` objects and shard
    partials under distinct key shapes).
    """

    #: The ``backend=`` label of this store's metrics and fault points;
    #: every store sets it.
    name: str

    def __init__(self, max_size: int):
        if max_size < 0:
            raise ValueError("cache size must be non-negative")
        self.max_size = max_size
        self._counter_lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._lifetime_hits = 0
        self._lifetime_misses = 0

    @property
    def enabled(self) -> bool:
        return self.max_size > 0

    def get(self, key: Hashable) -> Any | None:
        try:
            fault_point("cache.get", backend=self.name)
            value = self._load(key)
        except InjectedFault:
            value = None
        with self._counter_lock:
            if value is None:
                self._misses += 1
            else:
                self._hits += 1
        obs_metrics.incr("cache.misses" if value is None else "cache.hits", backend=self.name)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        if not self.enabled:
            return
        try:
            fault_point("cache.put", backend=self.name)
            evicted = self._save(key, value)
        except InjectedFault:
            return
        if evicted:
            obs_metrics.incr("cache.evictions", evicted, backend=self.name)

    def clear(self) -> None:
        """Drop every entry and reset the current-epoch counters.

        ``hit_rate`` after a clear describes the new workload, not the
        previous one; the pre-clear counters stay visible through
        ``lifetime_stats``.
        """
        self._drop_all()
        with self._counter_lock:
            self._lifetime_hits += self._hits
            self._lifetime_misses += self._misses
            self._hits = 0
            self._misses = 0

    def __len__(self) -> int:
        return self._size()

    def _stats(self, hits: int, misses: int) -> CacheStats:
        return CacheStats(hits=hits, misses=misses, size=self._size(), max_size=self.max_size)

    @property
    def stats(self) -> CacheStats:
        with self._counter_lock:
            hits, misses = self._hits, self._misses
        return self._stats(hits, misses)

    @property
    def lifetime_stats(self) -> CacheStats:
        """Counters accumulated across every ``clear()`` since creation."""
        with self._counter_lock:
            hits = self._lifetime_hits + self._hits
            misses = self._lifetime_misses + self._misses
        return self._stats(hits, misses)

    # ------------------------------------------------------------------
    # Store hooks
    # ------------------------------------------------------------------
    def _load(self, key: Hashable) -> Any | None:
        raise NotImplementedError

    def _save(self, key: Hashable, value: Any) -> int:
        raise NotImplementedError

    def _drop_all(self) -> None:
        raise NotImplementedError

    def _size(self) -> int:
        raise NotImplementedError


class MemoryCacheBackend(CacheBackend):
    """A small in-process LRU mapping evaluation keys to results."""

    name = "memory"

    def __init__(self, max_size: int = 256):
        super().__init__(max_size)
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._entries_lock = threading.Lock()

    def _load(self, key: Hashable) -> Any | None:
        with self._entries_lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def _save(self, key: Hashable, value: Any) -> int:
        evicted = 0
        with self._entries_lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_size:
                self._entries.popitem(last=False)
                evicted += 1
        return evicted

    def _drop_all(self) -> None:
        with self._entries_lock:
            self._entries.clear()

    def _size(self) -> int:
        with self._entries_lock:
            return len(self._entries)


class DiskCacheBackend(CacheBackend):
    """A persistent result cache: one pickle file per entry.

    Results survive across sessions and *processes* — two engines (or
    two interpreter runs) pointed at the same directory share entries,
    which is safe because keys are content fingerprints: the same key
    can only ever name the same (query, database, strategy, semantics,
    options) evaluation, so no invalidation semantics change relative to
    the in-memory backend.

    Layout: ``<path>/<sha256 of the canonical key>.pkl``.  Writes go
    through a temporary file and ``os.replace`` so concurrent readers
    (other processes included) never observe a torn entry.  Eviction is
    LRU by file modification time, enforced at ``put`` when the entry
    count exceeds ``max_entries``; ``get`` touches the file's mtime.

    Hit/miss counters are in-process (two processes each see their own
    ``stats``); sizes are read from the directory, so they reflect other
    writers.
    """

    name = "disk"

    def __init__(self, path: str | os.PathLike, max_entries: int = 4096):
        super().__init__(max_entries)
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self._count_lock = threading.Lock()
        # Approximate entry count, so the common put() stays O(1): the
        # directory is only listed when this estimate crosses the cap
        # (other processes writing concurrently make any count
        # approximate anyway; eviction re-counts exactly when it runs).
        self._approx_count: int | None = None

    def _entry_path(self, key: Hashable) -> Path:
        # Engine keys are nested tuples of canonical strings (query and
        # database fingerprints, strategy/semantics names, rendered
        # options), so their repr is stable across processes.
        digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()
        return self.path / f"{digest}.pkl"

    def _entry_files(self) -> list[Path]:
        try:
            return [p for p in self.path.iterdir() if p.suffix == ".pkl"]
        except OSError:
            return []

    def _load(self, key: Hashable) -> Any | None:
        entry = self._entry_path(key)
        try:
            value = pickle.loads(entry.read_bytes())
        except (OSError, pickle.PickleError, EOFError, AttributeError, ImportError):
            # Missing, torn, or written by an incompatible version
            # (including classes whose module has moved or vanished):
            # every one of these is a miss, never an error.
            return None
        with suppress(OSError):
            os.utime(entry)  # LRU touch; best-effort
        return value

    def _save(self, key: Hashable, value: Any) -> int:
        entry = self._entry_path(key)
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PickleError, TypeError, AttributeError):
            return 0  # unpicklable results simply stay uncached
        tmp_name = None
        try:
            fd, tmp_name = tempfile.mkstemp(dir=self.path, suffix=".tmp")
            with os.fdopen(fd, "wb") as tmp:
                tmp.write(payload)
            fresh = not entry.exists()
            os.replace(tmp_name, entry)
            tmp_name = None
        except OSError:
            return 0
        finally:
            if tmp_name is not None:  # replace failed: don't leak the temp
                with suppress(OSError):
                    os.unlink(tmp_name)
        with self._count_lock:
            if self._approx_count is None:
                self._approx_count = len(self._entry_files())
            elif fresh:
                self._approx_count += 1
            over = self._approx_count > self.max_size
        return self._evict() if over else 0

    def _evict(self) -> int:
        files = self._entry_files()
        evicted = 0
        if len(files) > self.max_size:
            def mtime(path: Path) -> float:
                try:
                    return path.stat().st_mtime
                except OSError:
                    return 0.0

            for stale in sorted(files, key=mtime)[: len(files) - self.max_size]:
                with suppress(OSError):
                    stale.unlink()
                    evicted += 1
        with self._count_lock:
            self._approx_count = min(len(files), self.max_size)
        return evicted

    def _drop_all(self) -> None:
        # Also sweeps temp files orphaned by writers that died mid-put.
        for stale in (*self._entry_files(), *self.path.glob("*.tmp")):
            with suppress(OSError):
                stale.unlink()
        with self._count_lock:
            self._approx_count = 0

    def _size(self) -> int:
        return len(self._entry_files())


class NamespacedCacheBackend(CacheBackend):
    """A namespaced *view* of a shared store, for multi-tenant isolation.

    Every key is wrapped as ``("ns", namespace, key)`` before it reaches
    the store's hooks, so two views with different namespaces can never
    observe each other's entries — even for identical (query, database,
    strategy, semantics, options) fingerprints.  This is how
    :mod:`repro.server` gives each tenant a private slice of one shared
    store (the disk store hashes the wrapped key's ``repr``, so the
    namespace lands in the file name).

    A tenant's lookup is counted, fault-injected and metered once, here
    in the view (under the store's ``backend`` label), so a tenant's
    ``stats`` reflect that tenant's workload only; ``size``/``max_size``
    mirror the shared store.  ``clear()`` clears the **whole** store
    (per-namespace deletion is not expressible through the hooks) —
    servers should therefore not expose it to tenants.
    """

    def __init__(self, backend: CacheBackend, namespace: str):
        if not isinstance(backend, CacheBackend):
            raise EngineError(
                f"a namespaced cache view needs a CacheBackend store, not "
                f"{type(backend).__name__}"
            )
        super().__init__(backend.max_size)
        self.backend = backend
        self.namespace = str(namespace)
        self.name = backend.name

    def _wrap(self, key: Hashable) -> Hashable:
        return ("ns", self.namespace, key)

    def _load(self, key: Hashable) -> Any | None:
        return self.backend._load(self._wrap(key))

    def _save(self, key: Hashable, value: Any) -> int:
        return self.backend._save(self._wrap(key), value)

    def _drop_all(self) -> None:
        self.backend._drop_all()

    def _size(self) -> int:
        return self.backend._size()


def resolve_cache_backend(cache: Any, *, cache_size: int = 256) -> CacheBackend:
    """Turn an engine's ``cache=`` argument into a backend instance.

    * ``None`` or ``"memory"`` — a fresh :class:`MemoryCacheBackend`
      holding ``cache_size`` entries;
    * ``"disk:<path>"`` — a :class:`DiskCacheBackend` on that directory,
      holding ``cache_size`` entries;
    * an object implementing the :class:`CacheBackend` surface — used
      as-is.  Duck typing is fine (no subclassing required), but the
      engine touches more than ``get``/``put``, so the full surface is
      validated here: a missing method fails now, with a message naming
      it, instead of as an ``AttributeError`` mid-evaluation.
    """
    if cache is None or cache == "memory":
        return MemoryCacheBackend(cache_size)
    if isinstance(cache, str):
        if cache.startswith("disk:"):
            path = cache[len("disk:"):]
            if not path:
                raise EngineError(
                    "cache='disk:' needs a directory, e.g. 'disk:/tmp/repro-cache'"
                )
            return DiskCacheBackend(path, max_entries=cache_size)
        raise EngineError(
            f"unknown cache spec {cache!r}; expected 'memory', 'disk:<path>', "
            "or a CacheBackend instance"
        )
    required = ("get", "put", "clear", "enabled", "stats")
    if hasattr(cache, "get") and hasattr(cache, "put"):
        missing = [attr for attr in required if not hasattr(cache, attr)]
        if missing:
            raise EngineError(
                f"cache backend {type(cache).__name__} is missing "
                f"{'/'.join(missing)}; implement the full "
                "repro.engine.CacheBackend surface (get/put/clear/"
                "enabled/stats), e.g. by subclassing it"
            )
        return cache
    raise EngineError(
        f"cannot use {cache!r} as a result cache; expected 'memory', "
        "'disk:<path>', or an object with get/put/clear/enabled/stats"
    )


def canonical_value(value: Any) -> str:
    """A canonical, type-tagged rendering of a database value.

    Used by the fingerprints below and by the hash partitioner of
    :mod:`repro.sharding`, which needs a rendering that is stable across
    processes (``hash()`` of strings is salted per interpreter).
    """
    if isinstance(value, Null):
        return f"null:{value.label!r}"
    return f"{type(value).__name__}:{value!r}"


def canonical_option_value(value: Any) -> str:
    """A stable rendering of one strategy-option value for cache keys.

    ``repr`` is not stable for arbitrary objects — the default
    ``<Foo object at 0x7f...>`` form renders the *address*, so identical
    calls never hit the cache, and once the address is reused two
    different objects can collide into a false hit.  This renderer walks
    the allowlisted shapes (scalars, nulls, enums, sequences, sets,
    mappings) through :func:`canonical_value` and refuses anything else.

    Raises :class:`~repro.engine.errors.EngineError` for values it
    cannot render stably; pass primitives/containers, or disable caching
    with ``use_cache=False`` for exotic option objects.
    """
    if value is None:
        return "none"
    if isinstance(value, (Null, bool, int, float, complex, str, bytes)):
        return canonical_value(value)
    if isinstance(value, enum.Enum):
        return f"enum:{type(value).__qualname__}.{value.name}"
    if isinstance(value, (list, tuple)):
        rendered = ",".join(canonical_option_value(item) for item in value)
        return f"seq:[{rendered}]"
    if isinstance(value, (set, frozenset)):
        rendered = ",".join(sorted(canonical_option_value(item) for item in value))
        return f"set:{{{rendered}}}"
    if isinstance(value, Mapping):
        items = sorted(
            (canonical_option_value(k), canonical_option_value(v))
            for k, v in value.items()
        )
        rendered = ",".join(f"{k}={v}" for k, v in items)
        return f"map:{{{rendered}}}"
    raise EngineError(
        f"cannot build a stable cache key from option value {value!r} of type "
        f"{type(value).__name__}; pass a primitive/container value or disable "
        "caching with use_cache=False"
    )


def canonical_options(options: Mapping[str, Any]) -> tuple[tuple[str, str], ...]:
    """Strategy options as a sorted, canonically rendered, hashable tuple."""
    return tuple(
        sorted((name, canonical_option_value(value)) for name, value in options.items())
    )


def evaluation_cache_key(
    query_fp: str,
    database_fp: str,
    strategy: str,
    semantics: str,
    options: Mapping[str, Any],
) -> Hashable:
    """The result-cache key of one monolithic evaluation.

    Shared by :class:`~repro.engine.core.Engine` and
    :class:`~repro.engine.aio.AsyncEngine`, so the sync and async twins
    interoperate on one cache.
    """
    return (query_fp, database_fp, strategy, semantics, canonical_options(options))


def relation_fingerprint(relation: Relation) -> str:
    """A stable content hash of one relation (attributes, rows, counts)."""
    hasher = hashlib.sha1()
    hasher.update(f"attributes:{relation.attributes!r}\n".encode("utf-8"))
    rows = sorted(
        (
            tuple(canonical_value(v) for v in row),
            count,
        )
        for row, count in relation.iter_rows(with_multiplicity=True)
    )
    for row, count in rows:
        hasher.update(f"{row!r}*{count}\n".encode("utf-8"))
    return hasher.hexdigest()


def database_fingerprint(database: Database) -> str:
    """A stable content hash of a database instance.

    Each relation is digested separately and combined under its
    ``repr``-escaped name.  The escaping matters: hashing raw names lets
    a crafted relation name containing newlines forge the boundary
    between two relations, so two different databases collide (a bug
    surfaced by the sharding fingerprint tests).  Digest-per-relation
    also lets :class:`~repro.sharding.ShardedDatabase` reuse cached
    per-fragment digests.
    """
    hasher = hashlib.sha1()
    for name in sorted(database.relation_names()):
        fingerprint = relation_fingerprint(database[name])
        hasher.update(f"relation:{name!r}:{fingerprint}\n".encode("utf-8"))
    return hasher.hexdigest()
