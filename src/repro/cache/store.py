"""The result store: one self-validating file per key.

Layout (format v2)::

    .repro-cache/
        CACHE_FORMAT            # "2\\n"
        00/
            00a3...f1.pkl       # one self-validating entry per key
        01/
        ...
        ff/

Each entry is a magic header + SHA-256 payload digest + pickle, stored
at ``key[:2]/<key>.pkl``.  A ``get`` is one ``open``/``read`` at that
path; the header and digest reject torn or corrupt files, which are
dropped and recomputed.  A ``put`` publishes atomically (temp file +
``os.replace``), so concurrent writers never expose a torn entry.  The
entry files are the only state: every handle sees every other
handle's writes at once, and :meth:`ResultCache.keys` /
:meth:`ResultCache.stats` glob ``*/*.pkl``.

Top-level ``<key>.pkl`` files of the original flat (v1) layout and
per-directory index files left by earlier v2 stores are not read.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pathlib
import pickle
import tempfile
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Tuple

from repro.cache.keys import default_cache_dir, stable_key

__all__ = ["ResultCache", "CacheStats"]

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

#: Shard directory name: first ``_SHARD_WIDTH`` hex chars of the key.
_SHARD_WIDTH = 2


@dataclass
class CacheStats:
    """Counters of one :class:`ResultCache` handle + on-disk footprint.

    ``entries``/``size_bytes`` count the entry files on disk when
    :meth:`ResultCache.stats` is called, whoever wrote them.
    """

    path: str
    entries: int
    size_bytes: int
    hits: int
    misses: int
    stores: int
    errors: int

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when no lookups happened)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class ResultCache:
    """Content-addressed pickle store: one digest-checked file per key."""

    def __init__(self, path: Optional[os.PathLike] = None):
        self.path = pathlib.Path(path) if path is not None \
            else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.errors = 0
        self._laid_out = False

    # -- keys ---------------------------------------------------------------
    def key(self, *parts: Any) -> str:
        """Alias for :func:`repro.cache.stable_key`."""
        return stable_key(*parts)

    def _file(self, key: str) -> pathlib.Path:
        return self.path / key[:_SHARD_WIDTH] / f"{key}.pkl"

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
    def _count(self, point: str) -> None:
        metrics = _metrics()
        if metrics is not None:
            metrics.counter(point).inc()

    # -- lookup / store -----------------------------------------------------
    def get(self, key: str) -> Tuple[bool, Any]:
        """``(True, value)`` on a valid hit, else ``(False, None)``.

        Corrupted, truncated or unreadable entries count as misses and
        are removed so the slot is recomputed cleanly.
        """
        try:
            blob = self._file(key).read_bytes()
        except OSError:
            self.misses += 1
            self._count("cache.misses")
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
            return False, None
        self.hits += 1
        self._count("cache.hits")
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
        metrics = _metrics()
        if metrics is not None:
            metrics.gauge("cache.bytes").set(float(self.stats().size_bytes))
        return True

    # -- maintenance --------------------------------------------------------
    def invalidate(self, key: str) -> bool:
        """Drop one entry; True when something was removed."""
        try:
            self._file(key).unlink()
        except OSError:
            return False
        return True

    def clear(self) -> int:
        """Remove every entry; returns the number removed."""
        removed = 0
        for path in self._iter_entries():
            with contextlib.suppress(OSError):
                path.unlink()
                removed += 1
        return removed

    def _iter_entries(self) -> Iterator[pathlib.Path]:
        if self.path.is_dir():
            yield from self.path.glob("*/*.pkl")

    def keys(self) -> List[str]:
        """Every stored key, sorted."""
        return sorted(path.stem for path in self._iter_entries())

    def stats(self) -> CacheStats:
        """Counters for this handle + the on-disk entry count and size."""
        entries = 0
        size = 0
        for path in self._iter_entries():
            with contextlib.suppress(OSError):  # removed mid-walk
                size += path.stat().st_size
                entries += 1
        return CacheStats(path=str(self.path), entries=entries,
                          size_bytes=size, hits=self.hits,
                          misses=self.misses, stores=self.stores,
                          errors=self.errors)
