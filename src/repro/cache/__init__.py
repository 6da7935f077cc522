"""On-disk result cache: memoize completed simulation points.

Every paper artifact is regenerated by sweeping configuration points
through independent, deterministic simulations, so a completed point is
a pure function of (tuning configuration, topology/workload parameters,
code).  :class:`ResultCache` memoizes such results under
``.repro-cache/`` keyed by a stable SHA-256 of exactly those inputs
plus a fingerprint of the ``repro`` package sources — re-running a
figure after an *unrelated* edit (docs, tests, scripts) is near-instant,
while touching any simulator source invalidates everything it could
have influenced.

Each key is one file under a 256-way ``key[:2]/`` directory fan-out
(see docs/CACHING.md).  Entries are self-validating: each file carries
a magic header and a digest of the pickled payload, so truncated or
corrupted files are detected, discarded and recomputed rather than
crashed on.  The digest catches corruption, not tampering: entries are
unpickled, so the cache directory must be trusted.

Knobs
-----

* ``REPRO_CACHE=1`` enables caching process-wide (the CLI enables it by
  default); :func:`cache_context` scopes it programmatically.
* ``REPRO_CACHE_DIR`` overrides the cache location (default
  ``./.repro-cache``).
* ``REPRO_CODE_FINGERPRINT`` overrides the computed source fingerprint
  (useful to tests and to pinned production deployments).
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Any, Optional

from repro.cache.keys import (code_fingerprint, default_cache_dir,
                              stable_key)
from repro.cache.store import CacheStats, ResultCache

__all__ = [
    "ResultCache",
    "CacheStats",
    "active_cache",
    "cache_context",
    "cache_stats",
    "clear_cache",
    "code_fingerprint",
    "default_cache_dir",
    "stable_key",
]

# ---------------------------------------------------------------------------
# Process-wide activation
# ---------------------------------------------------------------------------

# None = unset (fall back to REPRO_CACHE); False = explicitly disabled.
_active: contextvars.ContextVar = contextvars.ContextVar(
    "repro_cache", default=None)

_default: Optional[ResultCache] = None


def _default_cache() -> ResultCache:
    global _default
    if _default is None or _default.path != default_cache_dir():
        _default = ResultCache()
    return _default


def active_cache() -> Optional[ResultCache]:
    """The cache the current context should use, or None when disabled.

    Precedence: :func:`cache_context` > ``REPRO_CACHE`` env var > off.
    """
    value = _active.get()
    if value is not None:
        return value if isinstance(value, ResultCache) else None
    from repro.core.knobs import env_value  # lazy: core imports cache
    if env_value("REPRO_CACHE"):
        return _default_cache()
    return None


@contextlib.contextmanager
def cache_context(cache: Any = True):
    """Scope cache activation.

    ``cache`` may be True (use the default on-disk cache), False
    (disable caching even if ``REPRO_CACHE`` is set), a
    :class:`ResultCache` instance, or None (inherit the surrounding
    behaviour — a no-op scope).
    """
    if cache is None:
        yield active_cache()
        return
    if cache is True:
        value: Any = _default_cache()
    elif cache is False:
        value = False
    elif isinstance(cache, ResultCache):
        value = cache
    else:
        raise TypeError(f"cache_context expects bool/ResultCache/None, "
                        f"got {cache!r}")
    token = _active.set(value)
    try:
        yield value if isinstance(value, ResultCache) else None
    finally:
        _active.reset(token)


def cache_stats() -> CacheStats:
    """Stats for the currently active (or default) cache."""
    cache = active_cache()
    return (cache or _default_cache()).stats()


def clear_cache() -> int:
    """Clear the currently active (or default) cache; returns entries
    removed."""
    cache = active_cache()
    return (cache or _default_cache()).clear()
