"""A result-cache backend over ``multiprocessing.shared_memory``.

:class:`~repro.engine.cache.DiskCacheBackend` made results survive
process boundaries, but every hop pays pickle-to-disk-and-back — for the
sharded evaluator's per-shard partials that means re-serialising whole
fragment relations through the filesystem on every pool round trip.
:class:`SharedMemoryCacheBackend` keeps the exact same contract (content
fingerprints in, opaque pickled values out, misses never errors) while
storing each entry in a named POSIX shared-memory segment, so a server
process and its pool workers exchange cached partials through RAM.

Layout: one segment per entry, named ``<prefix>-<digest16>`` where the
digest hashes the canonical key ``repr`` (the same scheme as the disk
backend's file names — segment names must stay short, some platforms cap
them around 30 characters).  The first 8 bytes hold the payload length,
written *after* the payload: a freshly created segment is zero-filled,
so a concurrent reader that attaches mid-write sees length 0 and counts
a miss rather than unpickling a torn entry.

Ownership: the creating process unlinks its segments on ``clear()`` /
``close()`` (and, via ``atexit``, at interpreter exit — POSIX segments
outlive processes, so a crashed benchmark must not leak them into the
next run).  Attaching readers deliberately *unregister* from
``multiprocessing.resource_tracker``: on CPython < 3.13 the tracker
records every attach as ownership and unlinks the segment when the
reader exits, destroying entries other processes still use (bpo-38119).
"""

from __future__ import annotations

import atexit
import hashlib
import pickle
import re
import struct
import threading
from collections import OrderedDict
from typing import Any, Hashable

from multiprocessing import shared_memory

from ..resilience import InjectedFault, fault_point
from .cache import CacheBackend, CacheStats

__all__ = ["SharedMemoryCacheBackend"]

_LEN = struct.Struct("<Q")

# Segment names created (and so tracker-registered) by THIS process.  An
# attach to one of these must not unregister it — the owner's eventual
# ``unlink`` does, and a double unregister makes the tracker print a
# KeyError traceback.  Only attaches to *foreign* segments untrack.
_PROCESS_OWNED: set[str] = set()
_PROCESS_OWNED_LOCK = threading.Lock()


def _untrack(segment: shared_memory.SharedMemory) -> None:
    """Undo the resource tracker's attach-is-ownership bookkeeping."""
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing import resource_tracker

        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:
        pass


class SharedMemoryCacheBackend(CacheBackend):
    """A cross-process result cache: one shared-memory segment per entry.

    ``name`` prefixes every segment so independent caches coexist;
    ``max_entries`` bounds how many segments this *instance* keeps
    alive, evicted LRU by access order.  Entries written by another
    process with the same prefix are readable here (``get`` attaches by
    deterministic name), but only the creating instance evicts and
    unlinks what it created.
    """

    def __init__(self, name: str = "repro", max_entries: int = 1024):
        if max_entries < 0:
            raise ValueError("cache size must be non-negative")
        cleaned = re.sub(r"[^A-Za-z0-9_]", "", str(name))
        if not cleaned:
            raise ValueError(f"unusable shared-memory cache name {name!r}")
        # Segment name budget (~30 chars on the tightest platforms):
        # prefix ≤ 8 + "-" + 16 digest hex chars.
        self.name = cleaned[:8]
        self.max_entries = max_entries
        self._created: OrderedDict[str, shared_memory.SharedMemory] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._lifetime_hits = 0
        self._lifetime_misses = 0
        self._lock = threading.Lock()
        self._closed = False
        atexit.register(self.close)

    # ------------------------------------------------------------------
    # Key → segment mapping
    # ------------------------------------------------------------------
    def _segment_name(self, key: Hashable) -> str:
        digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:16]
        return f"{self.name}-{digest}"

    @staticmethod
    def _read(segment: shared_memory.SharedMemory) -> Any | None:
        try:
            (length,) = _LEN.unpack_from(segment.buf, 0)
            if length == 0 or length + _LEN.size > segment.size:
                return None  # mid-write or corrupt: a miss, never an error
            payload = bytes(segment.buf[_LEN.size:_LEN.size + length])
        except (struct.error, ValueError, IndexError, OSError):
            # Racing the owner: a segment unlinked (or still zero-sized)
            # between attach and read leaves a dead or undersized buffer.
            return None
        try:
            return pickle.loads(payload)
        except Exception:  # noqa: BLE001 - torn payloads raise anything
            return None

    # ------------------------------------------------------------------
    # CacheBackend surface
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.max_entries > 0 and not self._closed

    def get(self, key: Hashable) -> Any | None:
        name = self._segment_name(key)
        value = None
        try:
            fault_point("cache.get", backend="shm")
        except InjectedFault:
            with self._lock:
                self._misses += 1
            return None
        with self._lock:
            segment = self._created.get(name)
            if segment is not None:
                value = self._read(segment)
                if value is not None:
                    self._created.move_to_end(name)
        if value is None and not self._closed:
            # Not ours (or torn): attach by name — another process with
            # the same prefix may have written it.  The attach itself can
            # race the owner's unlink (FileNotFoundError) or catch a
            # zero-sized segment mid-create (ValueError from mmap); both
            # are misses, never errors.
            try:
                segment = shared_memory.SharedMemory(name=name)
            except (FileNotFoundError, OSError, ValueError):
                segment = None
            if segment is not None:
                with _PROCESS_OWNED_LOCK:
                    foreign = name not in _PROCESS_OWNED
                if foreign:
                    _untrack(segment)
                try:
                    value = self._read(segment)
                finally:
                    try:
                        segment.close()
                    except (OSError, BufferError):
                        pass
        with self._lock:
            if value is None:
                self._misses += 1
            else:
                self._hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        if not self.enabled:
            return
        try:
            fault_point("cache.put", backend="shm")
        except InjectedFault:
            return  # best-effort store: an injected fault drops the entry
        name = self._segment_name(key)
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PickleError, TypeError, AttributeError):
            return  # unpicklable results simply stay uncached
        with self._lock:
            if name in self._created:
                self._created.move_to_end(name)
                return  # content-keyed: same key ⇒ same value
        try:
            segment = shared_memory.SharedMemory(
                name=name, create=True, size=_LEN.size + len(payload)
            )
        except FileExistsError:
            return  # another process already cached this key
        except OSError:
            return  # shm exhausted: best-effort store, like a full disk
        with _PROCESS_OWNED_LOCK:
            _PROCESS_OWNED.add(name)
        segment.buf[_LEN.size:_LEN.size + len(payload)] = payload
        _LEN.pack_into(segment.buf, 0, len(payload))  # commit last
        evicted: list[shared_memory.SharedMemory] = []
        with self._lock:
            if self._closed:
                evicted.append(segment)
            else:
                self._created[name] = segment
                while len(self._created) > self.max_entries:
                    _, stale = self._created.popitem(last=False)
                    evicted.append(stale)
        for stale in evicted:
            self._unlink(stale)

    @staticmethod
    def _unlink(segment: shared_memory.SharedMemory) -> None:
        with _PROCESS_OWNED_LOCK:
            _PROCESS_OWNED.discard(segment.name)
        try:
            segment.close()
            segment.unlink()
        except OSError:  # pragma: no cover - already gone
            pass

    def clear(self) -> None:
        with self._lock:
            owned = list(self._created.values())
            self._created.clear()
            self._lifetime_hits += self._hits
            self._lifetime_misses += self._misses
            self._hits = 0
            self._misses = 0
        for segment in owned:
            self._unlink(segment)

    def close(self) -> None:
        """Unlink every owned segment; the backend then stays disabled."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            owned = list(self._created.values())
            self._created.clear()
        for segment in owned:
            self._unlink(segment)

    def __len__(self) -> int:
        with self._lock:
            return len(self._created)

    def _stats(self, hits: int, misses: int) -> CacheStats:
        return CacheStats(
            hits=hits, misses=misses, size=len(self._created), max_size=self.max_entries
        )

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return self._stats(self._hits, self._misses)

    @property
    def lifetime_stats(self) -> CacheStats:
        with self._lock:
            return self._stats(
                self._lifetime_hits + self._hits,
                self._lifetime_misses + self._misses,
            )
