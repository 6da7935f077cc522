"""The sharded result store: 256-way keyspace, shard indexes, hot tier.

Layout (format v2)::

    .repro-cache/
        CACHE_FORMAT            # "2\\n"
        00/
            index.jsonl         # append-only shard index
            00a3...f1.pkl       # one self-validating entry per key
        01/
        ...
        ff/

Each entry is a magic header + SHA-256 payload digest + pickle.  Top-
level ``<key>.pkl`` files of the original flat (v1) layout are not
read: such a key is a miss and is recomputed into its shard.

Two tiers answer a ``get``:

1. **hot tier** — an in-process LRU of recently *read* values; repeat
   lookups skip the filesystem and unpickling entirely.  Values are
   returned by reference, so treat cached results as immutable (every
   caller in this repository does).
2. **sharded file** — one ``open``/``read`` at a path derived from the
   key prefix; the magic header and payload digest reject torn or
   corrupt files, which are dropped and recomputed.

Each shard carries a compact append-only JSONL **index** (key → size,
last-use time) written with single ``O_APPEND`` writes so concurrent
processes never tear a record.  Indexes are loaded once per handle and
kept in memory: :meth:`ResultCache.stats` sums them in O(shards)
instead of walking O(entries) files, and the size-capped LRU eviction
(``REPRO_CACHE_MAX_BYTES``) orders candidates by the indexed last-use
time.  Lost or stale indexes self-heal: a missing index is rebuilt
from a directory scan, a dangling record is dropped when its file
turns out to be gone, and an unindexed file written by another process
is adopted on first read.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pathlib
import pickle
import tempfile
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.cache.keys import default_cache_dir, stable_key

__all__ = ["ResultCache", "CacheStats", "SHARDS", "cache_max_bytes"]

_active_metrics = None


def _metrics():
    """The ambient metrics registry, or None (lazy import: telemetry
    pulls in ``repro.sim``, which imports this package)."""
    global _active_metrics
    if _active_metrics is None:
        from repro.telemetry.session import active_metrics
        _active_metrics = active_metrics
    return _active_metrics()

#: File header: identifies cache entries and their format revision.
_MAGIC = b"RPROCACHE1\n"

#: Marker file recording the directory layout revision.
_FORMAT_FILE = "CACHE_FORMAT"
_FORMAT_VERSION = "2"

#: Shard fan-out: first ``_SHARD_WIDTH`` hex chars of the key.
_SHARD_WIDTH = 2
SHARDS = 16 ** _SHARD_WIDTH

_INDEX_NAME = "index.jsonl"

#: Hot-tier defaults (entries / bytes); see ``REPRO_CACHE_HOT_*``.
_HOT_ENTRIES_DEFAULT = 512
_HOT_BYTES_DEFAULT = 128 * 1024 * 1024


def cache_max_bytes() -> Optional[int]:
    """The on-disk size cap from ``REPRO_CACHE_MAX_BYTES`` (None = off)."""
    from repro.core.knobs import env_value  # lazy: core imports cache
    cap = env_value("REPRO_CACHE_MAX_BYTES")
    if cap is None:
        return None
    return cap if cap > 0 else None


def _env_int(name: str, default: int) -> int:
    from repro.core.knobs import env_value  # lazy: core imports cache
    value = env_value(name)
    return value if value is not None else default


@dataclass
class CacheStats:
    """Counters + on-disk footprint of one :class:`ResultCache`.

    ``entries``/``size_bytes`` come from the shard indexes — O(shards)
    to compute, not O(entries) — and reflect the indexes as loaded by
    this handle plus its own writes (call :meth:`ResultCache.reload`
    to pick up concurrent writers).
    """

    path: str
    entries: int
    size_bytes: int
    hits: int
    misses: int
    stores: int
    errors: int
    evictions: int = 0
    hot_hits: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when no lookups happened)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class _HotTier:
    """In-process LRU of recently read values (returned by reference)."""

    def __init__(self, max_entries: int, max_bytes: int):
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._items: "OrderedDict[str, Tuple[Any, int]]" = OrderedDict()
        self._bytes = 0

    def get(self, key: str) -> Tuple[bool, Any]:
        try:
            value, size = self._items[key]
        except KeyError:
            return False, None
        self._items.move_to_end(key)
        return True, value

    def put(self, key: str, value: Any, size: int) -> None:
        if self.max_entries <= 0 or size > self.max_bytes:
            return
        old = self._items.pop(key, None)
        if old is not None:
            self._bytes -= old[1]
        self._items[key] = (value, size)
        self._bytes += size
        while self._items and (len(self._items) > self.max_entries
                               or self._bytes > self.max_bytes):
            _, (_, dropped) = self._items.popitem(last=False)
            self._bytes -= dropped

    def pop(self, key: str) -> None:
        old = self._items.pop(key, None)
        if old is not None:
            self._bytes -= old[1]

    def clear(self) -> None:
        self._items.clear()
        self._bytes = 0


class _ShardIndex:
    """One shard's in-memory index, mirrored by an append-only JSONL.

    Records are ``{"k": key, "n": size, "t": last_use}`` (upsert) and
    ``{"k": key, "d": 1}`` (tombstone).  Appends go through a single
    ``os.write`` on an ``O_APPEND`` descriptor, so concurrent processes
    interleave whole lines, never fragments; a malformed line (the
    theoretical torn tail of a crashed writer) is skipped on load.
    """

    def __init__(self, directory: pathlib.Path):
        self.dir = directory
        self.entries: Dict[str, Tuple[int, float]] = {}
        self._records = 0  # lines represented by the on-disk file
        self._fd: Optional[int] = None
        self._loaded = False

    # -- loading / reconciliation -------------------------------------------
    def load(self) -> None:
        """Read the index once; rebuild from a scan when it is missing."""
        if self._loaded:
            return
        self._loaded = True
        path = self.dir / _INDEX_NAME
        try:
            raw = path.read_bytes()
        except OSError:
            if self.dir.is_dir():
                self._rebuild_from_scan()
            return
        for line in raw.splitlines():
            self._records += 1
            try:
                rec = json.loads(line)
                key = rec["k"]
            except (ValueError, KeyError, TypeError):
                continue  # torn tail of a crashed writer
            if rec.get("d"):
                self.entries.pop(key, None)
            else:
                self.entries[key] = (int(rec.get("n", 0)),
                                     float(rec.get("t", 0.0)))
        self._maybe_compact()

    def _rebuild_from_scan(self) -> None:
        """Reconstruct a lost index from the shard's entry files."""
        found = []
        for entry in self.dir.glob("*.pkl"):
            with contextlib.suppress(OSError):
                st = entry.stat()
                found.append((entry.stem, st.st_size, st.st_mtime))
        if not found:
            return
        for key, size, mtime in found:
            self.entries[key] = (size, mtime)
        self._write_compact()

    def _maybe_compact(self) -> None:
        # Rewrite when tombstones/duplicates dominate the on-disk file.
        if self._records > 2 * len(self.entries) + 16:
            self._write_compact()

    def _write_compact(self) -> None:
        self._close_fd()
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.dir, suffix=".idx.tmp")
            try:
                lines = [json.dumps({"k": k, "n": n, "t": t},
                                    separators=(",", ":"))
                         for k, (n, t) in sorted(self.entries.items())]
                os.write(fd, ("\n".join(lines) + "\n" if lines else "")
                         .encode())
            finally:
                os.close(fd)
            os.replace(tmp, self.dir / _INDEX_NAME)
            self._records = len(self.entries)
        except OSError:
            pass  # the index is advisory; the entry files are the truth

    # -- mutation ------------------------------------------------------------
    def _append(self, record: Dict[str, Any]) -> None:
        line = (json.dumps(record, separators=(",", ":")) + "\n").encode()
        try:
            if self._fd is None:
                self.dir.mkdir(parents=True, exist_ok=True)
                self._fd = os.open(self.dir / _INDEX_NAME,
                                   os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                                   0o644)
            os.write(self._fd, line)
            self._records += 1
        except OSError:
            self._close_fd()

    def upsert(self, key: str, size: int, last_use: float,
               persist: bool = True) -> None:
        self.load()
        self.entries[key] = (size, last_use)
        if persist:
            self._append({"k": key, "n": size, "t": last_use})

    def remove(self, key: str, persist: bool = True) -> None:
        self.load()
        if self.entries.pop(key, None) is not None and persist:
            self._append({"k": key, "d": 1})

    def _close_fd(self) -> None:
        if self._fd is not None:
            with contextlib.suppress(OSError):
                os.close(self._fd)
            self._fd = None

    def __del__(self):  # pragma: no cover - interpreter teardown
        self._close_fd()


class ResultCache:
    """Content-addressed pickle store: sharded, indexed, LRU-capped.

    ``max_bytes`` (or ``REPRO_CACHE_MAX_BYTES``) bounds the on-disk
    footprint; exceeding it evicts least-recently-used entries (last
    use = store time, refreshed on disk reads while a cap is active).
    ``hot_entries``/``hot_bytes`` bound the in-process read tier.
    """

    def __init__(self, path: Optional[os.PathLike] = None,
                 max_bytes: Optional[int] = None,
                 hot_entries: Optional[int] = None,
                 hot_bytes: Optional[int] = None):
        self.path = pathlib.Path(path) if path is not None \
            else default_cache_dir()
        self.max_bytes = max_bytes if max_bytes is not None \
            else cache_max_bytes()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.errors = 0
        self.evictions = 0
        self.hot_hits = 0
        self._shards: Dict[str, _ShardIndex] = {}
        self._hot = _HotTier(
            hot_entries if hot_entries is not None
            else _env_int("REPRO_CACHE_HOT_ENTRIES", _HOT_ENTRIES_DEFAULT),
            hot_bytes if hot_bytes is not None
            else _env_int("REPRO_CACHE_HOT_BYTES", _HOT_BYTES_DEFAULT))
        self._laid_out = False

    # -- keys ---------------------------------------------------------------
    def key(self, *parts: Any) -> str:
        """Alias for :func:`repro.cache.stable_key`."""
        return stable_key(*parts)

    def _shard_name(self, key: str) -> str:
        return key[:_SHARD_WIDTH]

    def _shard(self, key: str) -> _ShardIndex:
        name = self._shard_name(key)
        shard = self._shards.get(name)
        if shard is None:
            shard = self._shards[name] = _ShardIndex(self.path / name)
        return shard

    def _file(self, key: str) -> pathlib.Path:
        return self.path / self._shard_name(key) / f"{key}.pkl"

    def _ensure_layout(self) -> None:
        """Create the cache directory and its format marker on first
        touch."""
        if self._laid_out:
            return
        self._laid_out = True
        marker = self.path / _FORMAT_FILE
        with contextlib.suppress(OSError):
            self.path.mkdir(parents=True, exist_ok=True)
            if not marker.exists():
                marker.write_text(_FORMAT_VERSION + "\n")

    # -- telemetry -----------------------------------------------------------
    def _count(self, point: str, amount: int = 1) -> None:
        metrics = _metrics()
        if metrics is not None:
            metrics.counter(point).inc(amount)

    def _publish_bytes(self) -> None:
        metrics = _metrics()
        if metrics is not None:
            metrics.gauge("cache.bytes").set(float(self._total_bytes()))

    # -- lookup / store -----------------------------------------------------
    def get(self, key: str) -> Tuple[bool, Any]:
        """``(True, value)`` on a valid hit, else ``(False, None)``.

        Repeat reads are served from the in-process hot tier without
        touching the filesystem; corrupted, truncated or unreadable
        entries count as misses and are removed so the slot is
        recomputed cleanly.
        """
        hot, value = self._hot.get(key)
        if hot:
            self.hits += 1
            self.hot_hits += 1
            self._count("cache.hits")
            return True, value
        self._ensure_layout()
        try:
            blob = self._file(key).read_bytes()
        except OSError:
            self.misses += 1
            self._count("cache.misses")
            shard = self._shard(key)
            shard.load()
            shard.remove(key)  # reconcile a dangling index record
            return False, None
        try:
            if not blob.startswith(_MAGIC):
                raise ValueError("bad magic")
            digest = blob[len(_MAGIC):len(_MAGIC) + 64]
            payload = blob[len(_MAGIC) + 64:]
            if hashlib.sha256(payload).hexdigest().encode() != digest:
                raise ValueError("checksum mismatch")
            value = pickle.loads(payload)
        except Exception:  # reprolint: disable=RPR007 -- unpickling a corrupt blob can raise nearly anything; any failure means "treat as miss"
            # Detected corruption: drop the entry, report a miss.
            self.errors += 1
            self.misses += 1
            self._count("cache.misses")
            with contextlib.suppress(OSError):
                self._file(key).unlink()
            self._shard(key).remove(key)
            return False, None
        self.hits += 1
        self._count("cache.hits")
        shard = self._shard(key)
        shard.load()
        if key not in shard.entries:
            # adopted: another process stored it after our load
            shard.upsert(key, len(blob), time.time(), persist=False)
        elif self.max_bytes is not None:
            # under a size cap reads refresh LRU recency
            now = time.time()
            with contextlib.suppress(OSError):
                os.utime(self._file(key), (now, now))
            shard.upsert(key, shard.entries[key][0], now)
        self._hot.put(key, value, len(payload))
        return True, value

    def put(self, key: str, value: Any) -> bool:
        """Store ``value``; returns False (and stays silent) when the
        value cannot be pickled or the directory is unwritable —
        caching is an optimization, never a failure mode."""
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:  # reprolint: disable=RPR007 -- unpicklable values raise arbitrary types; caching is best-effort, never a failure mode
            self.errors += 1
            return False
        blob = (_MAGIC
                + hashlib.sha256(payload).hexdigest().encode()
                + payload)
        self._ensure_layout()
        try:
            target = self._file(key)
            target.parent.mkdir(parents=True, exist_ok=True)
            # atomic publish: concurrent writers never expose a torn file
            fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
            try:
                os.write(fd, blob)
            finally:
                os.close(fd)
            os.replace(tmp, target)
        except OSError:
            self.errors += 1
            return False
        self.stores += 1
        self._shard(key).upsert(key, len(blob), time.time())
        if self.max_bytes is not None:
            self._evict_to_cap(protect=key)
        self._publish_bytes()
        return True

    # -- eviction ------------------------------------------------------------
    def _total_bytes(self) -> int:
        self._load_all_shards()
        return sum(size for shard in self._shards.values()
                   for size, _ in shard.entries.values())

    def _evict_to_cap(self, protect: Optional[str] = None) -> int:
        """Drop least-recently-used entries until under ``max_bytes``."""
        if self.max_bytes is None:
            return 0
        self._load_all_shards()
        total = self._total_bytes()
        if total <= self.max_bytes:
            return 0
        candidates = sorted(
            (last_use, key, size)
            for shard in self._shards.values()
            for key, (size, last_use) in shard.entries.items()
            if key != protect)
        evicted = 0
        for last_use, key, size in candidates:
            if total <= self.max_bytes:
                break
            with contextlib.suppress(OSError):
                self._file(key).unlink()
            self._shard(key).remove(key)
            self._hot.pop(key)
            total -= size
            evicted += 1
        if evicted:
            self.evictions += evicted
            self._count("cache.evictions", evicted)
        return evicted

    # -- maintenance --------------------------------------------------------
    def invalidate(self, key: str) -> bool:
        """Drop one entry; True when something was removed."""
        self._hot.pop(key)
        try:
            self._file(key).unlink()
        except OSError:
            return False
        self._shard(key).remove(key)
        return True

    def clear(self) -> int:
        """Remove every entry; returns the number removed."""
        removed = 0
        for path in self._iter_entries():
            with contextlib.suppress(OSError):
                path.unlink()
                removed += 1
        if self.path.is_dir():
            for index in self.path.glob(f"*/{_INDEX_NAME}"):
                with contextlib.suppress(OSError):
                    index.unlink()
        self._shards.clear()
        self._hot.clear()
        return removed

    def reload(self) -> None:
        """Drop in-memory state so the next access re-reads the indexes
        (picks up entries stored by concurrent processes)."""
        for shard in self._shards.values():
            shard._close_fd()
        self._shards.clear()
        self._hot.clear()
        self._laid_out = False

    def _iter_entries(self) -> Iterator[pathlib.Path]:
        if self.path.is_dir():
            yield from self.path.glob("*/*.pkl")

    def _load_all_shards(self) -> None:
        self._ensure_layout()
        if self.path.is_dir():
            for entry in self.path.iterdir():
                if (entry.is_dir() and len(entry.name) == _SHARD_WIDTH
                        and entry.name not in self._shards):
                    self._shards[entry.name] = _ShardIndex(entry)
        for shard in self._shards.values():
            shard.load()

    def keys(self) -> List[str]:
        """Every indexed key (sorted) — O(shards) file reads."""
        self._load_all_shards()
        return sorted(key for shard in self._shards.values()
                      for key in shard.entries)

    def stats(self) -> CacheStats:
        """Counters for this handle + indexed on-disk footprint.

        Served from the shard indexes: O(shards), never an O(entries)
        directory walk.
        """
        self._load_all_shards()
        entries = 0
        size = 0
        for shard in self._shards.values():
            entries += len(shard.entries)
            size += sum(n for n, _ in shard.entries.values())
        return CacheStats(path=str(self.path), entries=entries,
                          size_bytes=size, hits=self.hits,
                          misses=self.misses, stores=self.stores,
                          errors=self.errors, evictions=self.evictions,
                          hot_hits=self.hot_hits)
