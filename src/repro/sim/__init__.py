"""Deterministic discrete-event simulation kernel.

A small, dependency-free engine in the style of SimPy: generator-based
processes yield :class:`~repro.sim.engine.Event` objects (timeouts,
other processes, hand-triggered events) and are resumed when those
events fire.  Plain callbacks are scheduled with ``schedule_call``, and
finite-capacity FIFO servers are
:class:`~repro.sim.timeline.FifoTimeline` arithmetic, not events.  The
engine is deterministic — equal-time events fire in schedule order —
which makes every experiment in this repository exactly reproducible.
"""

from repro.sim.engine import Environment, Event, Timeout, Process, PeriodicCall
from repro.sim.monitor import Monitor, CounterMonitor, UtilizationMonitor
from repro.sim.rng import RngStreams
from repro.sim.runner import SweepRunner, job_context, point_seed, resolve_jobs
from repro.sim.trace import TraceBuffer, TraceEvent

__all__ = [
    "Environment",
    "SweepRunner",
    "job_context",
    "point_seed",
    "resolve_jobs",
    "Event",
    "Timeout",
    "Process",
    "PeriodicCall",
    "Monitor",
    "CounterMonitor",
    "UtilizationMonitor",
    "RngStreams",
    "TraceBuffer",
    "TraceEvent",
]
