"""The four benchmark workloads, driven through the program's public API.

Each workload prepares itself (:meth:`Workload.prepare`), then performs
measured operations (:meth:`Workload.operate`) that check their own
output.  The traced passes re-run the same simulation work through
:meth:`Workload.compute`.  See README.md for why each workload exists.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import pathlib
import pickle
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import layers
from repro import ResultCache, SweepRunner, run_experiment
from repro.cache import cache_context
from repro.chaos import FaultPlan, FaultSpec, chaos_session
from repro.config import TuningConfig
from repro.core.wanrecord import WanRecordRun
from repro.net.fabric import build_fat_tree
from repro.net.hybrid import FabricSimulation, alltoall_pairs, incast_pairs
from repro.net.topology import build_wan_path
from repro.sim import pool
from repro.sim.engine import Environment
from repro.tcp.connection import TcpConnection
from repro.telemetry.session import telemetry_session

#: A child process that runs longer than this is killed and counted failed.
CHILD_TIMEOUT_S = 150.0
#: The benchmark's own entry point for work in a fresh interpreter.
CHILD = pathlib.Path(__file__).resolve().parent / "child.py"

#: Report rows carry their paper value as ``name (paper 1.8)``; rows whose
#: paper value has a unit suffix or is prose are skipped.
_PAPER_ROW = re.compile(r"\(paper ~?([0-9]+(?:\.[0-9]+)?)\)\s+(\S+)\s*$")


@dataclasses.dataclass
class Context:
    """What every workload shares: paths, seed and worker count."""

    root: pathlib.Path
    tmp: pathlib.Path
    seed: int
    jobs: int

    @property
    def src(self) -> pathlib.Path:
        return self.root / "src"

    def fresh_dir(self, label: str) -> pathlib.Path:
        """A new empty directory under the run's scratch directory."""
        return pathlib.Path(tempfile.mkdtemp(prefix=f"{label}-",
                                             dir=self.tmp))

    def child_env(self, cache_dir: pathlib.Path) -> Dict[str, str]:
        """Environment for a fresh interpreter: no ambient ``REPRO_*``
        knob except the cache directory, and only this tree's sources."""
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        env["PYTHONPATH"] = str(self.src)
        return env


@dataclasses.dataclass
class ChildRun:
    """One finished child interpreter."""

    returncode: int
    stderr: bytes
    wall_s: float


def run_child(ctx: Context, args: Sequence[str],
              cache_dir: pathlib.Path) -> ChildRun:
    """Run ``python <args>`` in a fresh interpreter and reap it; one that
    outlives :data:`CHILD_TIMEOUT_S` is killed."""
    workdir = ctx.fresh_dir("child")
    err_path = workdir / "stderr"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args],
                                stdout=subprocess.DEVNULL, stderr=err,
                                cwd=workdir, env=ctx.child_env(cache_dir))
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        wall = time.perf_counter() - start
    run = ChildRun(proc.returncode, err_path.read_bytes(), wall)
    shutil.rmtree(workdir)
    return run


def fresh_import_s(ctx: Context, statement: str) -> float:
    """Host seconds for a fresh interpreter to run ``statement``."""
    run = run_child(ctx, ["-c", statement], ctx.tmp)
    if run.returncode != 0:
        raise RuntimeError(f"fresh interpreter failed to run {statement!r}:"
                           f"\n{run.stderr.decode(errors='replace')}")
    return run.wall_s


def vm_hwm_mb(pid: Any = "self") -> float:
    """Peak resident set size of a live process, from ``/proc``."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def paper_error_pct(rows: Sequence[str]) -> float:
    """Mean |sim - paper| / paper (percent) over rows with a paper value."""
    errors = []
    for row in rows:
        match = _PAPER_ROW.search(row)
        if match is None:
            continue
        paper, measured = float(match.group(1)), float(match.group(2))
        errors.append(abs(measured - paper) / paper)
    if not errors:
        raise RuntimeError("no report row carries a paper value")
    return 100.0 * statistics.fmean(errors)


@dataclasses.dataclass
class Op:
    """One measured operation: its cold work and the warm answers after."""

    wall_s: float
    warm_ms: List[float]
    fidelity_pct: float
    value: Any
    attempted: int
    errors: List[str] = dataclasses.field(default_factory=list)
    failed: int = 0
    #: Cache figures of the first warm answer, when it was probed.
    warm_probe: Dict[str, float] = dataclasses.field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.errors.append(message)


class Workload:
    """Base class: set-up, one measured operation, and the traced passes."""

    name = ""
    #: What a fresh interpreter imports during set-up.
    imports = "import repro"
    #: The measured operation fans out over the worker pool.
    parallel = False
    #: Warm answers after each cold operation, each by a fresh interpreter.
    WARM_ANSWERS = 5

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def prepare(self) -> None:
        """In-process set-up (timed, and repeated, in each set-up)."""

    def compute(self, jobs: int, store: Optional[pathlib.Path]) -> Any:
        """The workload's simulation work; ``store`` None disables the
        result cache."""
        raise NotImplementedError

    def check(self, op: Op, store: pathlib.Path) -> None:
        """Record on ``op`` every way its cold output is wrong."""
        raise NotImplementedError

    def fidelity_pct(self, value: Any) -> float:
        """Simulated error against the reference, in percent."""
        raise NotImplementedError

    def operate(self, probe_warm: bool = False) -> Op:
        """One measured operation: the work, cold into a fresh store, then
        ``WARM_ANSWERS`` answers from that store, each by a fresh
        interpreter, as a user re-running it would get them.  Spreading
        the warm answers over the run keeps one slow spell of the host
        from setting all of them.  ``probe_warm`` probes the cache calls
        of the first warm answer."""
        jobs = self.ctx.jobs if self.parallel else 1
        store = self.ctx.fresh_dir(self.name)
        start = time.perf_counter()
        value = self.compute(jobs, store)
        op = Op(time.perf_counter() - start, [], self.fidelity_pct(value),
                value, attempted=1 + self.WARM_ANSWERS)
        self.check(op, store)
        op.failed = 1 if op.errors else 0
        for index in range(self.WARM_ANSWERS):
            probe = (self.ctx.tmp / f"{self.name}-probe.json"
                     if probe_warm and index == 0 else None)
            ms, again = self.warm_answer(jobs, store, probe)
            if probe is not None and again is not None:
                op.warm_probe = json.loads(probe.read_text())
                probe.unlink()
            op.warm_ms.append(ms)
            if again != value:
                op.fail("warm answer differs from the cold output")
                op.failed += 1
        shutil.rmtree(store)
        return op

    def warm_answer(self, jobs: int, store: pathlib.Path,
                    probe: Optional[pathlib.Path] = None
                    ) -> Tuple[float, Any]:
        """``(host ms, answer)`` of a fresh interpreter answering the
        operation from ``store``; the answer is None if it failed.  With
        ``probe``, the child writes its cache figures there."""
        out = self.ctx.tmp / f"{self.name}-answer.pickle"
        args = [str(CHILD), "--workload", self.name, "--seed",
                str(self.ctx.seed), "--jobs", str(jobs), "--store",
                str(store), "--out", str(out)]
        if probe is not None:
            args += ["--probe", str(probe)]
        run = run_child(self.ctx, args, store)
        if run.returncode != 0:
            print(run.stderr.decode(errors="replace"), file=sys.stderr)
            return run.wall_s * 1e3, None
        answer = pickle.loads(out.read_bytes())
        out.unlink()
        return run.wall_s * 1e3, answer

    def same(self, first: Any, second: Any) -> bool:
        """Whether two passes produced the same simulated output."""
        return first == second

    def result_counts(self, value: Any) -> Dict[str, float]:
        """Count metrics read from the operation's result objects."""
        return {}

    def children_rss_mb(self) -> float:
        """Peak RSS of the processes this workload started, in MB."""
        return 0.0

    def close(self) -> None:
        """Stop every process the workload started."""
        pool.shutdown_pool()

    # -- traced passes ------------------------------------------------------
    def probe_pass(self) -> Tuple[Op, Dict[str, float]]:
        """One measured operation with the cache and pool calls probed:
        the cold work in this process, and the first warm answer in its
        fresh interpreter.  Writes come from the cold work; the read
        latency from the warm answer."""
        before = pool.pool_stats()
        probe = layers.Probe()
        with probe.installed():
            op = self.operate(probe_warm=True)
        after = pool.pool_stats()
        if not op.warm_probe:
            raise RuntimeError("the probed warm answer failed")
        counts = probe.metrics()
        counts["cache.get_ms_p50"] = op.warm_probe["cache.get_ms_p50"]
        for name in ("cache.hits", "cache.misses"):
            counts[name] += op.warm_probe[name]
        counts["pool.tasks"] = (after["tasks_dispatched"]
                                - before["tasks_dispatched"])
        counts["pool.reuse"] = after["pool_reuses"] - before["pool_reuses"]
        counts.update(self.result_counts(op.value))
        return op, counts

    def plain_pass(self) -> Tuple[float, Any]:
        """``(host seconds, output)`` of the work, serial and untraced."""
        store = self.ctx.fresh_dir("plain")
        start = time.perf_counter()
        value = self.compute(1, store)
        wall = time.perf_counter() - start
        shutil.rmtree(store)
        return wall, value

    def profile_pass(self, layer_map: layers.LayerMap) -> layers.Profiled:
        """The work, serial, under cProfile (so that no pool worker hides
        any of it from the profiler)."""
        store = self.ctx.fresh_dir("profiled")
        profiled = layers.profile(lambda: self.compute(1, store), layer_map)
        shutil.rmtree(store)
        return profiled

    def telemetry_pass(self) -> Tuple[Any, Dict[str, float]]:
        """``(output, counters)`` from the program's own telemetry."""
        jobs = self.ctx.jobs if self.parallel else 1
        with telemetry_session(metrics=True, profile=True) as session:
            value = self.compute(jobs, None)
        return value, layers.telemetry_counts(session)


def _worker_pid(_task: Any) -> int:
    return os.getpid()


class LanFig3(Workload):
    """Cold Fig. 3 regeneration on the worker pool, then warm answers."""

    name = "lan_fig3"
    parallel = True

    def prepare(self) -> None:
        pool.shutdown_pool()
        if self.ctx.jobs > 1:  # start the persistent pool's workers
            pool.dispatch(_worker_pid, range(self.ctx.jobs),
                          jobs=self.ctx.jobs)

    def compute(self, jobs: int, store: Optional[pathlib.Path]) -> Any:
        cache = ResultCache(store) if store is not None else False
        return run_experiment("fig3", jobs=jobs, cache=cache)

    def fidelity_pct(self, value: Any) -> float:
        return paper_error_pct([f"{k} {v}" for k, v
                                in value.data["summary"].items()])

    def check(self, op: Op, store: pathlib.Path) -> None:
        for curve in op.value.data["curves"].values():
            for point in curve.points:
                expected = point.count * point.payload
                # goodput is the receiver's delivered bytes over elapsed
                received = point.goodput_bps * point.elapsed_s / 8.0
                if point.bytes_delivered != expected or \
                        abs(received - expected) > 1e-9 * expected:
                    op.fail(f"payload {point.payload}: delivered "
                            f"{received:.0f} bytes, expected {expected}")
                if not point.goodput_bps > 0:
                    op.fail(f"payload {point.payload}: goodput "
                            f"{point.goodput_bps}")
        fresh = ResultCache(store)
        stored = [fresh.get(key) for key in fresh.keys()]
        if not stored or not all(hit for hit, _ in stored):
            op.fail("a stored entry did not read back")
        if not any(value == op.value for _, value in stored):
            op.fail("no stored entry equals the computed output")

    def children_rss_mb(self) -> float:
        return sum(vm_hwm_mb(child.pid)
                   for child in multiprocessing.active_children())


#: Fat-tree arity (k=8: 128 hosts) and flows per pattern.
FAT_TREE_K = 8
FABRIC_FLOWS = 1024
FABRIC_DURATION_S = 0.1
_FABRIC_PATTERNS = {"alltoall": alltoall_pairs, "incast": incast_pairs}


def fabric_point(task: Any) -> Any:
    """One hybrid fat-tree run (module level: it is a sweep point)."""
    pattern, n_flows, seed = task
    topo = build_fat_tree(FAT_TREE_K)
    pairs = _FABRIC_PATTERNS[pattern](topo, n_flows)
    return FabricSimulation(topo, pairs, n_foreground=8,
                            seed=seed).run(duration_s=FABRIC_DURATION_S)


class _Sweep(Workload):
    """A workload whose runs are ``SweepRunner`` points, so that the
    result cache memoizes them like any sweep of the program."""

    namespace = ""
    #: The module-level point function (sweep points cross processes).
    point: Any = None

    def tasks(self) -> List[Any]:
        raise NotImplementedError

    def compute(self, jobs: int, store: Optional[pathlib.Path]) -> Any:
        cache = ResultCache(store) if store is not None else False
        with cache_context(cache):
            return SweepRunner(jobs).map(self.point, self.tasks(),
                                         cache_ns=self.namespace)


class FabricHybrid(_Sweep):
    """All-to-all and incast, 1024 flows each, on a hybrid k=8 fat-tree."""

    name = "fabric_hybrid"
    imports = "import repro.net.hybrid, repro.net.fabric"
    #: Fewer warm answers: the cold operation is the longest, and a run
    #: should hold as many of them as of the other workloads'.
    WARM_ANSWERS = 3
    namespace = "perfbench.fabric_hybrid"
    point = staticmethod(fabric_point)

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.reference: Optional[List[Any]] = None
        self.topo = None

    def prepare(self) -> None:
        self.topo = build_fat_tree(FAT_TREE_K)

    def tasks(self) -> List[Any]:
        return [(pattern, FABRIC_FLOWS, self.ctx.seed)
                for pattern in _FABRIC_PATTERNS]

    def _bounds_bps(self) -> Dict[str, float]:
        """Aggregate-goodput ceilings: the incast server's downlink, and
        every host downlink together for all-to-all."""
        hosts = set(self.topo.hosts)
        server = self.topo.hosts[0]
        return {"incast": sum(link.rate_bps for link in self.topo.links
                              if link.dst == server),
                "alltoall": sum(link.rate_bps for link in self.topo.links
                                if link.dst in hosts)}

    def fidelity_pct(self, value: Any) -> float:
        bounds = self._bounds_bps()
        shortfalls = [(bounds[pattern] - result.aggregate_goodput_bps)
                      / bounds[pattern]
                      for pattern, result in zip(_FABRIC_PATTERNS, value)]
        return 100.0 * statistics.fmean(shortfalls)

    @staticmethod
    def _simulated(results: Sequence[Any]) -> List[Any]:
        return [dataclasses.replace(r, wall_s=0.0) for r in results]

    def same(self, first: Any, second: Any) -> bool:
        return self._simulated(first) == self._simulated(second)

    def check(self, op: Op, store: pathlib.Path) -> None:
        bounds = self._bounds_bps()
        for pattern, result in zip(_FABRIC_PATTERNS, op.value):
            if result.mode != "hybrid":
                op.fail(f"{pattern}: mode {result.mode!r}, not hybrid")
            if not result.aggregate_goodput_bps <= bounds[pattern]:
                op.fail(f"{pattern}: aggregate "
                        f"{result.aggregate_goodput_bps:.4g} b/s exceeds "
                        f"{bounds[pattern]:.4g} b/s")
        if self.reference is None:
            self.reference = op.value
        elif not self.same(op.value, self.reference):
            op.fail("same seed gave different events or goodput")

    def result_counts(self, value: Any) -> Dict[str, float]:
        return {"net.fabric.coupler_ticks": sum(r.coupler_ticks
                                                for r in value),
                "net.fabric.fluid_losses": sum(r.fluid_losses for r in value),
                "net.fabric.fg_drops": sum(r.foreground_drops
                                           for r in value)}


#: The scaled Sunnyvale -> Geneva run: propagation scale, simulated
#: seconds, and the loss burst's window on the forward OC-48.
WAN_SCALE = 0.02
WAN_DURATION_S = 2.0
WAN_BURST_S = 0.05
#: Goodput of the paper's record run (Sect. 5), in Gb/s.
PAPER_WAN_GBPS = 2.38


def _bulk_source(conn: TcpConnection):
    while True:
        yield from conn.write(262144)


def wan_point(task: Any) -> Dict[str, Any]:
    """One lossy WAN DES run (module level: it is a sweep point)."""
    (seed,) = task
    record = WanRecordRun()
    buf = max(65536, int(record.bdp_buffer_bytes(truesize_aware=True)
                         * WAN_SCALE))
    fault_at = WAN_DURATION_S / 2
    plan = FaultPlan(name="wan-loss-burst", seed=seed, faults=(
        FaultSpec(kind="loss_burst", target="link:wan.fwd.oc48*",
                  start_s=fault_at, duration_s=WAN_BURST_S,
                  probability=0.5, label="bottleneck burst"),))
    with chaos_session(plan) as session:
        env = Environment()
        testbed = build_wan_path(env, TuningConfig.wan_tuned(buf=buf),
                                 bottleneck_queue_frames=record.queue_frames)
        for path in (testbed.forward, testbed.reverse):
            path.oc192.propagation_s *= WAN_SCALE
            path.oc48.propagation_s *= WAN_SCALE
        conn = TcpConnection(env, testbed.sunnyvale, testbed.geneva)
        env.process(_bulk_source(conn), name="wan.src")
        env.run(until=fault_at)
        before_fault = conn.receiver.bytes_delivered
        env.run(until=WAN_DURATION_S)
        injector = session.injector_for(env)
        faults = injector.summary() if injector is not None else []
    return {"pre_fault_goodput_bps": before_fault * 8.0 / fault_at,
            "bytes_delivered": conn.receiver.bytes_delivered,
            "retransmits": conn.sender.retransmitted,
            "segments": conn.sender.segments_sent,
            "faults": faults,
            "events_scheduled": env.events_scheduled}


class WanLoss(_Sweep):
    """The scaled WAN DES with a seeded loss burst on the bottleneck."""

    name = "wan_loss"
    imports = "import repro.chaos, repro.net.topology, repro.core.wanrecord"
    namespace = "perfbench.wan_loss"
    point = staticmethod(wan_point)

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.reference: Optional[Any] = None

    def tasks(self) -> List[Any]:
        return [(self.ctx.seed,)]

    def fidelity_pct(self, value: Any) -> float:
        goodput = value[0]["pre_fault_goodput_bps"] / 1e9
        return 100.0 * abs(goodput - PAPER_WAN_GBPS) / PAPER_WAN_GBPS

    def check(self, op: Op, store: pathlib.Path) -> None:
        run = op.value[0]
        if not run["faults"]:
            op.fail("the fault plan did not attach to the run")
        for fault in run["faults"]:
            if not (fault["fired"] and fault["recovered"]):
                op.fail(f"fault #{fault['index']} did not fire and recover")
            if not fault["matched"]:
                op.fail(f"fault #{fault['index']} matched no component")
        if not run["retransmits"] > 0:
            op.fail("the loss burst caused no retransmission")
        if not run["bytes_delivered"] > 0:
            op.fail("no bytes delivered")
        if self.reference is None:
            self.reference = op.value
        elif op.value != self.reference:
            op.fail("same seed gave a different run")

    def result_counts(self, value: Any) -> Dict[str, float]:
        return {"chaos.frames_dropped": sum(f["drops"]
                                            for f in value[0]["faults"])}


WORKLOADS = {cls.name: cls for cls in (LanFig3, FabricHybrid, WanLoss)}
