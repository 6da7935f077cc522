"""Time-series instrumentation for simulations.

Monitors are append-only recorders that convert to numpy arrays lazily —
the hot simulation loop pays only a ``list.append``, and all statistics
are computed vectorised afterwards (per the HPC-Python guidance of moving
work out of inner loops).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import MeasurementError
from repro.sim.engine import Environment

__all__ = ["Monitor", "CounterMonitor", "UtilizationMonitor"]


class Monitor:
    """Records ``(time, value)`` samples."""

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def record(self, value: float, time: Optional[float] = None) -> None:
        """Append a sample at ``time`` (default: now)."""
        self._times.append(self.env.now if time is None else time)
        self._values.append(value)

    def __len__(self) -> int:
        return len(self._values)

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The samples as ``(times, values)`` float arrays."""
        return (np.asarray(self._times, dtype=float),
                np.asarray(self._values, dtype=float))

    # -- statistics -------------------------------------------------------------
    def _require_samples(self) -> np.ndarray:
        if not self._values:
            raise MeasurementError(f"monitor {self.name!r} has no samples")
        return np.asarray(self._values, dtype=float)

    def mean(self) -> float:
        """Arithmetic mean of the recorded values."""
        return float(self._require_samples().mean())

    def max(self) -> float:
        """Largest recorded value."""
        return float(self._require_samples().max())

    def min(self) -> float:
        """Smallest recorded value."""
        return float(self._require_samples().min())

    def std(self) -> float:
        """Population standard deviation of the recorded values."""
        return float(self._require_samples().std())

    def time_average(self, until: Optional[float] = None) -> float:
        """Piecewise-constant time average of the signal.

        Each recorded value is held until the next sample; the last value
        is held until ``until`` (default: now).
        """
        values = self._require_samples()
        times = np.asarray(self._times, dtype=float)
        end = self.env.now if until is None else until
        edges = np.append(times, end)
        widths = np.diff(edges)
        if widths.sum() <= 0:
            return float(values[-1])
        return float(np.dot(values, widths) / widths.sum())

    def rate(self) -> float:
        """Total of values divided by the recording span (a throughput)."""
        values = self._require_samples()
        span = self._times[-1] - self._times[0]
        if span <= 0:
            raise MeasurementError(
                f"monitor {self.name!r} span is zero; cannot compute a rate")
        return float(values.sum() / span)


class CounterMonitor:
    """A cheap running counter with first/last-event timestamps."""

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name
        self.total = 0.0
        self.events = 0
        self.first_time: Optional[float] = None
        self.last_time: Optional[float] = None

    def add(self, amount: float = 1.0, time: Optional[float] = None) -> None:
        """Accumulate ``amount`` at the current time (or an explicit
        ``time`` — callback chains stamp the instant the modelled
        action completed, which may precede the callback running)."""
        now = self.env.now if time is None else time
        if self.first_time is None:
            self.first_time = now
        self.last_time = now
        self.total += amount
        self.events += 1

    def rate(self, start: Optional[float] = None,
             end: Optional[float] = None) -> float:
        """``total / (end - start)``; defaults to the observed span."""
        if self.first_time is None:
            raise MeasurementError(f"counter {self.name!r} never fired")
        t0 = self.first_time if start is None else start
        t1 = self.last_time if end is None else end
        span = t1 - t0
        if span <= 0:
            raise MeasurementError(
                f"counter {self.name!r} span is zero; cannot compute a rate")
        return self.total / span


class UtilizationMonitor:
    """Tracks the busy fraction of an on/off signal (e.g. CPU load)."""

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name
        self._level = 0
        self._since = env.now
        self._busy = 0.0
        self._start = env.now

    def enter(self) -> None:
        """The monitored entity became (more) busy."""
        self._accumulate()
        self._level += 1

    def exit(self) -> None:
        """The monitored entity became (less) busy."""
        if self._level <= 0:
            raise MeasurementError(
                f"utilization monitor {self.name!r}: exit() without enter()")
        self._accumulate()
        self._level -= 1

    def _accumulate(self) -> None:
        now = self.env.now
        if self._level > 0:
            self._busy += now - self._since
        self._since = now

    def utilization(self) -> float:
        """Busy fraction since construction (0..1 for a single server)."""
        self._accumulate()
        elapsed = self.env.now - self._start
        if elapsed <= 0:
            return 0.0
        return self._busy / elapsed
