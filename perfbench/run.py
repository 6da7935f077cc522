#!/usr/bin/env python3
"""The simulator's benchmark: end-to-end metrics, or a traced run for
per-layer ones.

Run it from the root of a checkout::

    python3 perfbench/run.py --workload lan_fig3 --seed 1 --seconds 35 --trace 0

``--trace 0`` sets the workload up several times, then repeats its
operation for ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` makes the separate traced run that reports the per-layer
metrics.  Every operation checks its own output.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  README.md describes the
workloads and every metric.

Exit codes: 0 with a result line; 2 when the tree holds no ``src/repro``;
3 when the run touched files outside its scratch directory; 4 when two
traced passes of the same code disagree on a count or an output.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import sys
import tempfile
import time
from typing import Any, Dict, List, Tuple

import layers

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench-tmp"

#: Fresh interpreters (and in-process preparations) timed per set-up.
SETUP_ROUNDS = 5

END_TO_END = {"setup_s": "s", "wall_s": "s", "warm_p50_ms": "ms",
              "peak_rss_mb": "MB", "fidelity_err_pct": "%"}

PER_LAYER = {
    **{f"{layer}.self_frac": "fraction" for layer in layers.SELF_FRAC_LAYERS},
    **{f"{layer}.calls": "count" for layer in layers.CALLS_LAYERS},
    "sim.events": "count", "sim.heap_hwm": "count", "sim.ns_per_event": "ns",
    "hw.nic.tx_frames": "count", "hw.nic.frames_per_train": "frames",
    "hw.nic.interrupts": "count", "hw.pcix.transfers": "count",
    "tcp.segments": "count", "tcp.retransmits": "count",
    "net.fabric.coupler_ticks": "count", "net.fabric.fluid_losses": "count",
    "net.fabric.fg_drops": "count", "net.wan.drops": "count",
    "chaos.frames_dropped": "count",
    "cache.put_ms_p50": "ms", "cache.stores": "count", "cache.bytes": "B",
    "cache.get_ms_p50": "ms", "cache.hits": "count", "cache.misses": "count",
    "pool.tasks": "count", "pool.reuse": "count", "pool.dispatch_s": "s",
    "pool.wait_s": "s", "import_s": "s", "trace.overhead_frac": "ratio",
}

#: Directories the hygiene check ignores: interpreter and tool caches,
#: build output, and this benchmark's own scratch directory.
_IGNORED_DIRS = {"__pycache__", ".perfbench-tmp", ".bench_build", ".git",
                 ".pytest_cache", ".hypothesis"}


class Disagreement(RuntimeError):
    """Two traced passes of the same code disagreed."""


def tree_state(root: pathlib.Path) -> Dict[str, Tuple[int, int]]:
    """``{path: (size, mtime)}`` of every file the run must not touch,
    ``.repro-cache`` included."""
    state = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in _IGNORED_DIRS]
        for name in filenames:
            path = os.path.join(dirpath, name)
            st = os.lstat(path)
            state[os.path.relpath(path, root)] = (st.st_size, st.st_mtime_ns)
    return state


def measure(wl: Any, seconds: int) -> Dict[str, Any]:
    """Set up ``SETUP_ROUNDS`` times, then operate for ``seconds``."""
    import workloads

    imports = [workloads.fresh_import_s(wl.ctx, wl.imports)
               for _ in range(SETUP_ROUNDS)]
    prepares = []
    for _ in range(SETUP_ROUNDS):
        start = time.perf_counter()
        wl.prepare()
        prepares.append(time.perf_counter() - start)
    # a further operation starts only if, at the mean pace so far, it
    # ends less than half an operation past the deadline: a run spends
    # about ``seconds`` operating whether its operations are short or long
    ops = []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        ops.append(wl.operate())
        now = time.perf_counter()
        if now + (now - start) / len(ops) / 2 >= deadline:
            break
    peak = workloads.vm_hwm_mb() + wl.children_rss_mb()
    for op in ops:
        for error in op.errors:
            print(f"FAILED {wl.name}: {error}", file=sys.stderr)
    warm = [ms for op in ops for ms in op.warm_ms]
    values = {
        "setup_s": statistics.median(imports) + statistics.median(prepares),
        "wall_s": statistics.fmean(op.wall_s for op in ops),
        "warm_p50_ms": statistics.median(warm),
        "peak_rss_mb": peak,
        "fidelity_err_pct": statistics.median(op.fidelity_pct
                                              for op in ops),
    }
    print(f"{wl.name}: {len(ops)} operations, {len(warm)} warm answers, "
          f"{SETUP_ROUNDS} set-ups; operations took "
          + " ".join(f"{op.wall_s:.3f}" for op in ops) + " s")
    return _result(ops, {k: (v, END_TO_END[k]) for k, v in values.items()})


def trace(wl: Any) -> Dict[str, Any]:
    """The traced run: probe, plain, two cProfile and a telemetry pass."""
    import workloads

    wl.prepare()
    import_s = statistics.median(workloads.fresh_import_s(wl.ctx,
                                                          "import repro")
                                 for _ in range(SETUP_ROUNDS))
    op, counts = wl.probe_pass()
    plain_s, plain_value = wl.plain_pass()
    layer_map = layers.LayerMap(SRC / "repro")
    first = wl.profile_pass(layer_map)
    second = wl.profile_pass(layer_map)
    diffs = layers.diff_counts(first.func_calls, second.func_calls)
    if diffs:
        raise Disagreement("call counts differ between two profiled "
                           "passes:\n  " + "\n  ".join(diffs[:20]))
    telemetry_value, telemetry = wl.telemetry_pass()
    outputs = [plain_value, first.value, second.value, telemetry_value]
    for index, value in enumerate(outputs):
        if not wl.same(op.value, value):
            raise Disagreement(f"traced pass #{index + 1} produced another "
                               "output than the measured operation")
    self_s = {name: first.self_s.get(name, 0.0) + second.self_s.get(name, 0.0)
              for name in set(first.self_s) | set(second.self_s)}
    values: Dict[str, float] = {}
    values.update(layers.self_fractions(self_s))
    values.update(layers.call_counts(first.calls))
    values.update(counts)
    values.update(telemetry)
    events = values.get("sim.events", 0)
    values["sim.ns_per_event"] = plain_s / events * 1e9 if events else 0.0
    values["import_s"] = import_s
    values["trace.overhead_frac"] = (
        statistics.median([first.wall_s, second.wall_s]) / plain_s)
    for error in op.errors:
        print(f"FAILED {wl.name}: {error}", file=sys.stderr)
    print(f"{wl.name}: traced serially under cProfile, twice "
          f"(call counts identical); untraced {plain_s:.3f} s, traced "
          f"{first.wall_s:.3f} s and {second.wall_s:.3f} s")
    return _result([op], {name: (values.get(name, 0), unit)
                          for name, unit in PER_LAYER.items()})


def _result(ops: List[Any], metrics: Dict[str, Tuple[float, str]]
            ) -> Dict[str, Any]:
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<26} {value:>16.6g} {unit}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'repro'} not found; run from the root "
              "of a checkout of the simulator", file=sys.stderr)
        return 2
    # a terminated run still cleans up and stops its workers
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    before = tree_state(ROOT)
    SCRATCH.mkdir(exist_ok=True)
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    # anything that falls back to the ambient cache lands in scratch
    os.environ["REPRO_CACHE_DIR"] = str(tmp / "ambient-cache")
    sys.path.insert(0, str(SRC))
    try:
        import repro
        import workloads

        if pathlib.Path(repro.__file__).resolve().parent != \
                (SRC / "repro").resolve():
            print(f"perfbench: imported repro from {repro.__file__}, not "
                  f"from {SRC}", file=sys.stderr)
            return 2
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; known: "
                         f"{', '.join(workloads.WORKLOADS)}")
        ctx = workloads.Context(ROOT, tmp, args.seed,
                                min(2, len(os.sched_getaffinity(0))))
        wl = workloads.WORKLOADS[args.workload](ctx)
        try:
            result = trace(wl) if args.trace else measure(wl, args.seconds)
        finally:
            wl.close()
    except Disagreement as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 4
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it
    after = tree_state(ROOT)
    if after != before:
        changed = sorted(k for k in set(before) | set(after)
                         if before.get(k) != after.get(k))
        print("perfbench: the run changed files outside its scratch "
              "directory: " + ", ".join(changed[:20]), file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
