"""Per-layer measurement from outside the program.

Three sources, none of which needs a change to the program itself:

* :func:`profile` runs a callable under ``cProfile`` and groups self
  time and call counts by ``repro`` module (:func:`layer_of`).
* :class:`Probe` wraps the program's public cache and pool entry points
  for the duration of a ``with`` block and records how long each call
  took and what it returned.
* :func:`telemetry_counts` reads the counters of the program's own
  telemetry registry and engine profiler.
"""

from __future__ import annotations

import contextlib
import cProfile
import dataclasses
import gc
import pathlib
import pstats
import statistics
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Function key as cProfile reports it: (filename, line, name).
FuncKey = Tuple[str, int, str]

#: Layers whose self-time share is reported.  ``hw`` adds up its
#: sub-layers; ``tcp`` is the packet-level TCP only (``tcp.fluid`` is
#: reported on its own).
SELF_FRAC_LAYERS = ("sim", "hw", "hw.nic", "hw.pcix", "hw.cpu", "oskernel",
                    "tcp", "tcp.fluid", "net.hybrid", "net.coupling",
                    "net.ethernet", "net.wanpath", "chaos", "telemetry",
                    "analysis", "other")
CALLS_LAYERS = ("sim", "oskernel", "tcp")
_HW_SPLIT = ("nic", "pcix", "cpu")

OTHER = "other"


def layer_of(module_parts: Tuple[str, ...]) -> str:
    """Layer name for a module path below the ``repro`` package.

    ``("hw", "nic.py")`` -> ``hw.nic``; ``("tcp", "fluid.py")`` ->
    ``tcp.fluid``; ``("tcp", "sender.py")`` -> ``tcp``; every ``net``
    module is its own layer (``net.hybrid``); other packages and
    top-level modules are named after themselves (``sim``, ``units``).
    """
    head = module_parts[0]
    stem = pathlib.PurePath(module_parts[-1]).stem
    if len(module_parts) == 1:
        return "repro" if stem in ("__init__", "__main__") else stem
    if head == "hw" and stem in _HW_SPLIT:
        return f"hw.{stem}"
    if head == "tcp" and stem == "fluid":
        return "tcp.fluid"
    if head == "net":
        return f"net.{stem}"
    return head


class LayerMap:
    """Maps cProfile function keys to layers of one ``repro`` tree."""

    def __init__(self, package_dir: pathlib.Path):
        self.package_dir = str(package_dir.resolve())
        self._memo: Dict[str, Optional[str]] = {}

    def repro_layer(self, filename: str) -> Optional[str]:
        """The layer of a file inside the package, else ``None``."""
        if filename not in self._memo:
            prefix = self.package_dir + "/"
            self._memo[filename] = (
                layer_of(tuple(filename[len(prefix):].split("/")))
                if filename.startswith(prefix) else None)
        return self._memo[filename]


def _is_benchmark_file(filename: str) -> bool:
    return pathlib.PurePath(filename).parent.name == "perfbench"


def group_stats(stats: Dict[FuncKey, tuple], layers: LayerMap
                ) -> Tuple[Dict[str, float], Dict[str, int]]:
    """``(self seconds per layer, calls per layer)`` from raw pstats.

    Code outside the package -- C builtins, the standard library,
    NumPy, generated dataclass methods -- has its self time charged to
    the ``repro`` functions that called it, split by the time each
    caller spent in it (cProfile keeps one level of callers; chains of
    outside code are followed upwards).  Time that reaches no ``repro``
    frame, such as the benchmark's own code, is ``other``.  Calls count
    ``repro`` functions only; a generator counts once per resumption.
    """
    shares: Dict[FuncKey, Dict[str, float]] = {}

    def share_of(func: FuncKey, active: set) -> Dict[str, float]:
        done = shares.get(func)
        if done is not None:
            return done
        filename = func[0]
        layer = layers.repro_layer(filename)
        if layer is not None:
            result = {layer: 1.0}
        elif _is_benchmark_file(filename) or func in active \
                or func not in stats:
            result = {OTHER: 1.0}
        else:
            callers = stats[func][4]
            weights = {c: entry[2] for c, entry in callers.items()}
            if not any(weights.values()):
                weights = {c: float(entry[1]) for c, entry in callers.items()}
            total = sum(weights.values())
            if not total:
                result = {OTHER: 1.0}
            else:
                active.add(func)
                result = defaultdict(float)
                for caller, weight in weights.items():
                    for name, frac in share_of(caller, active).items():
                        result[name] += frac * weight / total
                active.discard(func)
                result = dict(result)
        shares[func] = result
        return result

    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        for name, frac in share_of(func, set()).items():
            self_s[name] += tt * frac
        layer = layers.repro_layer(func[0])
        if layer is not None:
            calls[layer] += nc
    return dict(self_s), dict(calls)


def self_fractions(self_s: Dict[str, float]) -> Dict[str, float]:
    """Share of self time per reported layer (``hw`` sums its parts)."""
    total = sum(self_s.values()) or 1.0
    hw = sum(t for name, t in self_s.items()
             if name == "hw" or name.startswith("hw."))
    return {f"{name}.self_frac":
            (hw if name == "hw" else self_s.get(name, 0.0)) / total
            for name in SELF_FRAC_LAYERS}


def call_counts(calls: Dict[str, int]) -> Dict[str, int]:
    """``<layer>.calls`` for the layers whose calls are reported."""
    return {f"{name}.calls": calls.get(name, 0) for name in CALLS_LAYERS}


@dataclasses.dataclass
class Profiled:
    """What one cProfile'd run left: its host time, its return value,
    self seconds and calls per layer, and calls per ``repro`` function."""

    wall_s: float
    value: Any
    self_s: Dict[str, float]
    calls: Dict[str, int]
    func_calls: Dict[str, int]


def profile(fn: Callable[[], Any], layers: LayerMap) -> Profiled:
    """Run ``fn`` under cProfile with the cyclic collector off.

    The collector is stopped inside the profiled window because it
    closes abandoned simulation generators at allocation-dependent
    moments, and cProfile counts each close as a call; with it off,
    call counts repeat exactly from run to run.
    """
    gc.collect()
    profiler = cProfile.Profile()
    gc.disable()
    try:
        start = time.perf_counter()
        profiler.enable()
        try:
            value = fn()
        finally:
            profiler.disable()
        wall = time.perf_counter() - start
    finally:
        gc.enable()
    gc.collect()
    stats = pstats.Stats(profiler).stats
    self_s, calls = group_stats(stats, layers)
    func_calls = {f"{key[0]}:{key[1]}:{key[2]}": entry[1]
                  for key, entry in stats.items()
                  if layers.repro_layer(key[0]) is not None}
    return Profiled(wall, value, self_s, calls, func_calls)


def diff_counts(first: Dict[str, Any], second: Dict[str, Any]
                ) -> List[str]:
    """Keys whose values differ between two count dictionaries."""
    return [f"{key}: {first.get(key)} != {second.get(key)}"
            for key in sorted(set(first) | set(second))
            if first.get(key) != second.get(key)]


class Probe:
    """Times the program's public cache and pool calls while installed.

    Wraps ``ResultCache.get``/``put`` and ``repro.sim.pool.submit`` /
    ``SweepHandle.collect`` (``pool.dispatch`` is ``submit`` followed by
    ``collect``), restoring the originals on exit.
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, List[float]] = defaultdict(list)
        self.count: Counter = Counter()
        self.footprint: Dict[str, int] = {}

    def _timed(self, name: str, fn: Callable,
               after: Optional[Callable[[Any, Any], None]] = None
               ) -> Callable:
        seconds = self.seconds[name]

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            seconds.append(time.perf_counter() - start)
            if after is not None:
                after(args[0], result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_get(self, _cache: Any, result: Any) -> None:
        self.count["cache.hits" if result[0] else "cache.misses"] += 1

    def _after_put(self, cache: Any, stored: bool) -> None:
        if stored:
            self.count["cache.stores"] += 1
            self.footprint[str(cache.path)] = cache.stats().size_bytes

    @contextlib.contextmanager
    def installed(self) -> Iterator["Probe"]:
        from repro.cache.store import ResultCache
        from repro.sim import pool

        targets = [(ResultCache, "get", "cache.get", self._after_get),
                   (ResultCache, "put", "cache.put", self._after_put),
                   (pool, "submit", "pool.dispatch", None),
                   (pool.SweepHandle, "collect", "pool.wait", None)]
        originals = []
        for owner, attr, name, after in targets:
            original = owner.__dict__[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, self._timed(name, original, after))
        try:
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def metrics(self) -> Dict[str, float]:
        """Cache and pool figures recorded while installed."""

        def p50_ms(name: str) -> float:
            values = self.seconds.get(name)
            return statistics.median(values) * 1e3 if values else 0.0

        return {
            "cache.get_ms_p50": p50_ms("cache.get"),
            "cache.put_ms_p50": p50_ms("cache.put"),
            "cache.hits": self.count["cache.hits"],
            "cache.misses": self.count["cache.misses"],
            "cache.stores": self.count["cache.stores"],
            "cache.bytes": sum(self.footprint.values()),
            "pool.dispatch_s": sum(self.seconds.get("pool.dispatch", ())),
            "pool.wait_s": sum(self.seconds.get("pool.wait", ())),
        }


def telemetry_counts(session: Any) -> Dict[str, float]:
    """Layer counters from a finished ``telemetry_session``."""
    totals: Dict[str, float] = defaultdict(float)
    for entry in session.registry.snapshot():
        data = entry["data"]
        if entry["kind"] == "counter":
            totals[entry["name"]] += data["value"]
        elif entry["kind"] == "histogram":
            totals[entry["name"] + ".count"] += data["count"]
            totals[entry["name"] + ".sum"] += data["sum"]
    profile = session.profile
    trains = totals["nic.train.count"]
    return {
        "sim.events": profile.events_total,
        "sim.heap_hwm": profile.heap_hwm,
        "hw.nic.tx_frames": int(totals["nic.tx.frames"]),
        "hw.nic.frames_per_train": (totals["nic.train.sum"] / trains
                                    if trains else 0.0),
        "hw.nic.interrupts": int(totals["nic.interrupts"]),
        "hw.pcix.transfers": int(totals["pcix.dma.transfers"]),
        "tcp.segments": int(totals["tcp.tx.segments"]),
        "tcp.retransmits": int(totals["tcp.tx.retransmits"]),
        "net.wan.drops": int(totals["wan.drops"]),
    }
