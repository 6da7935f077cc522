"""Discrete-event simulation core: environment, events and processes.

Design notes
------------

* The event queue stores ``(time, sequence, Event)`` tuples.  The
  monotonically increasing sequence number guarantees FIFO ordering
  among same-time events, so runs are bit-for-bit deterministic.  The
  queue is a binary heap (``heapq``, C-implemented); the data path keeps
  it shallow, where a heap beats bucketed alternatives.
* Processes are plain Python generators.  A process yields an
  :class:`Event`; the engine registers the process as a callback and
  resumes it (``send``/``throw``) when the event fires.  This is the same
  execution model as SimPy's, reduced to the features the repro needs.
* Following the profiling guidance in the HPC-Python guides the hot path
  (the dispatch loop inlined into ``Environment.run``) avoids attribute
  lookups in the inner loop and allocates nothing beyond the events
  themselves.  Internal model code can additionally use
  :meth:`Environment._fast_timeout`, which recycles processed
  :class:`Timeout` objects through a free pool instead of allocating a
  fresh one per event.
"""

from __future__ import annotations

import heapq
from collections import deque
from functools import partial
from time import perf_counter
from typing import Any, Callable, Deque, Generator, List, Optional, Tuple

from repro.chaos.hooks import attach_environment as _attach_chaos
from repro.errors import ScheduleInPastError, SimulationError
from repro.telemetry.profiling import callback_component as _callback_component
from repro.telemetry.profiling import component_of as _component_of
from repro.telemetry.session import attach_environment as _attach_environment

__all__ = ["Environment", "Event", "Timeout", "Process", "PeriodicCall"]

_heappush = heapq.heappush
_heappop = heapq.heappop


def _noop(event: "Event") -> None:
    """Marker callback: registers interest in an event without acting."""


def _run_call(event: "Event") -> None:
    """Trampoline for :meth:`Environment.schedule_call` events: invokes
    the stored ``fn(*args)``.  A shared module-level function, so
    scheduling a call allocates no per-call closure."""
    event.fn(*event.args)


class PeriodicCall:
    """A cancellable fixed-interval callback (see :meth:`Environment.every`).

    The first call fires one ``interval`` after creation, then every
    ``interval`` thereafter until :meth:`cancel` — the primitive behind
    the hybrid mode's fluid coupling tick.  Each firing schedules the
    next through the pooled callback path, so a periodic call costs one
    recycled event per tick and never retains a fired event.

    With ``while_pending=True`` the call re-arms only while *other*
    events are still pending after it fires, so a drain-mode
    ``run()`` still terminates: once the periodic call would be the
    sole thing keeping the queue alive, it stops.  Nothing can wake a
    drained DES except its own events, so stopping then loses no
    coverage — this is how the live-telemetry heartbeat rides along
    without turning every run into an infinite loop.
    """

    __slots__ = ("env", "interval", "fn", "args", "fires", "while_pending",
                 "_active")

    def __init__(self, env: "Environment", interval: float,
                 fn: Callable[..., None], args: tuple,
                 while_pending: bool = False):
        if interval <= 0:
            raise ScheduleInPastError(
                f"periodic interval must be positive: {interval!r}")
        self.env = env
        self.interval = interval
        self.fn = fn
        self.args = args
        self.fires = 0
        self.while_pending = while_pending
        self._active = True
        env.schedule_call(interval, self._fire)

    def _fire(self) -> None:
        if not self._active:
            return
        self.fires += 1
        self.fn(*self.args)
        if self._active and not (self.while_pending
                                 and not self.env.pending_count()):
            self.env.schedule_call(self.interval, self._fire)

    def cancel(self) -> None:
        """Stop firing; the pending event becomes a no-op."""
        self._active = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "active" if self._active else "cancelled"
        return f"<PeriodicCall every {self.interval}s {state} fires={self.fires}>"


class Event:
    """A one-shot occurrence that callbacks (and processes) can wait on.

    An event goes through three states: *pending* (created), *triggered*
    (scheduled on the event queue) and *processed* (callbacks ran).  Use
    :meth:`succeed` or :meth:`fail` to trigger it.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered",
                 "_processed", "_pooled")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False
        self._pooled = False

    # -- state inspection --------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True when the event succeeded (valid only after triggering)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value passed to :meth:`succeed` / the exception of :meth:`fail`."""
        return self._value

    # -- triggering ----------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire successfully after ``delay``."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        if delay == 0.0:  # reprolint: disable=RPR008 -- exact-zero sentinel: "this instant", not a computed float
            self.env._schedule_at(self, self.env._now)
        else:
            self.env._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire with an exception after ``delay``."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        if delay == 0.0:  # reprolint: disable=RPR008 -- exact-zero sentinel: "this instant", not a computed float
            self.env._schedule_at(self, self.env._now)
        else:
            self.env._schedule(self, delay)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event is processed.

        If the event was already processed the callback runs immediately;
        this removes a whole class of lost-wakeup races.
        """
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self._processed
            else "triggered" if self._triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires automatically ``delay`` seconds from creation.

    The ``fn``/``args`` slots are used only when the object carries a
    :meth:`Environment.schedule_call` callback (the pool recycles one
    object shape through both roles)."""

    __slots__ = ("delay", "fn", "args")

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ScheduleInPastError(f"negative timeout: {delay!r}")
        # Inlined Event.__init__ + scheduling: Timeouts are the single
        # most-allocated object in a simulation, so skip the extra calls.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        self.delay = delay
        self._pooled = False
        env._seq += 1
        env._push((env._now + delay, env._seq, self))


class Process(Event):
    """A running generator; also an event that fires when it returns.

    The generator's ``return`` value becomes the event value, so parent
    processes can ``result = yield env.process(child())``.
    """

    __slots__ = ("_generator", "name")

    def __init__(self, env: "Environment",
                 generator: Generator[Event, Any, Any],
                 name: str = ""):
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise TypeError(f"process() requires a generator, got {generator!r}")
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: resume the process at the current time (fast path —
        # the init event needs none of succeed()'s re-trigger checks).
        init = Event(env)
        init._triggered = True
        init.callbacks.append(self._resume)
        env._schedule_at(init, env._now)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    # -- engine internals ---------------------------------------------------
    def _resume(self, event: Event) -> None:
        gen = self._generator
        try:
            if event._ok:
                target = gen.send(event._value)
            else:
                exc = event._value
                target = gen.throw(exc)
        except StopIteration as stop:
            self._finish(True, stop.value)
            return
        except BaseException as exc:  # reprolint: disable=RPR007 -- a process generator can die with anything (incl. GeneratorExit/KeyboardInterrupt); all of it must be captured as the process outcome
            self._finish(False, exc)
            return
        if not isinstance(target, Event):
            # Close the generator, then report a clear error.
            gen.close()
            self._finish(False, SimulationError(
                f"process {self.name!r} yielded {target!r}; "
                "processes must yield Event instances"))
            return
        if target.env is not self.env:
            gen.close()
            self._finish(False, SimulationError(
                f"process {self.name!r} yielded an event from another environment"))
            return
        target.add_callback(self._resume)

    def _finish(self, ok: bool, value: Any) -> None:
        self._triggered = True
        self._ok = ok
        self._value = value
        self.env._schedule_at(self, self.env._now)
        if not ok and not self.callbacks:
            # Nobody is waiting on this process: surface the crash rather
            # than swallowing it (mirrors SimPy's behaviour).
            self.env._record_crash(self, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} alive={self.is_alive}>"


class Environment:
    """The simulation clock and event queue."""

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._crashes: Deque[Tuple[Process, BaseException]] = deque()
        self._timeout_pool: List[Timeout] = []
        self._profiler: Optional[Any] = None
        # partial() keeps the heap push a single C call from the
        # Timeout hot path (no bound-method dispatch).
        self._push: Callable[[tuple], None] = partial(_heappush, self._queue)
        # Chaos first: a non-empty fault plan schedules its arm/fire/
        # recover events before anything else can, so they win (time,
        # seq) ties against frame deliveries; with no plan this is a
        # single is-None test.
        _attach_chaos(self)
        _attach_environment(self)

    @property
    def events_scheduled(self) -> int:
        """Total events ever scheduled — the events-simulated counter
        used for events/sec reporting (every scheduled event is
        eventually dispatched in a drained run)."""
        return self._seq

    def pending_count(self) -> int:
        """Number of not-yet-dispatched events."""
        return len(self._queue)

    def enable_profiling(self, profiler: Any) -> None:
        """Route dispatch through the self-profiling loop.

        ``profiler`` is an :class:`~repro.telemetry.profiling.
        EngineProfiler` (or anything with the same counters).  The
        unprofiled ``run()`` path is untouched: the only cost when
        profiling is off is one ``is None`` test per ``run()`` call.
        """
        self._profiler = profiler

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # -- event constructors ---------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def _fast_timeout(self, delay: float, value: Any = None) -> Timeout:
        """A pooled timeout for trusted internal callers.

        Identical semantics to :meth:`timeout` except the returned object
        is recycled through a free pool once processed, so hot model
        loops (CPU occupancy, DMA holds, wire times, poll loops) allocate
        nothing in steady state.  Callers must *only* ``yield`` the
        event and must not keep a reference to it after it fires —
        holding one would observe the object being reused for a later,
        unrelated timeout.
        """
        if delay < 0:
            raise ScheduleInPastError(f"negative timeout: {delay!r}")
        pool = self._timeout_pool
        if pool:
            ev = pool.pop()
            ev.callbacks = []
            ev._value = value
            ev._ok = True
            ev._processed = False
            ev.delay = delay
            self._seq += 1
            self._push((self._now + delay, self._seq, ev))
            return ev
        ev = Timeout(self, delay, value)
        ev._pooled = True
        return ev

    def process(self, generator: Generator[Event, Any, Any],
                name: str = "") -> Process:
        """Start running ``generator`` as a process."""
        return Process(self, generator, name=name)

    def _call_event(self, fn: Callable[..., None], args: tuple) -> Timeout:
        """A pooled, already-triggered event carrying a callback.

        Like :meth:`_fast_timeout` the object is recycled once processed,
        so the returned event must not be retained after it fires."""
        pool = self._timeout_pool
        if pool:
            ev = pool.pop()
            ev._value = None
            ev._ok = True
            ev._processed = False
        else:
            ev = Timeout.__new__(Timeout)
            ev.env = self
            ev._value = None
            ev._ok = True
            ev._processed = False
            ev.delay = 0.0
            ev._pooled = True
        ev._triggered = True
        ev.callbacks = [_run_call]
        ev.fn = fn
        ev.args = args
        return ev

    def schedule_call(self, delay: float, fn: Callable[..., None],
                      *args: Any) -> Event:
        """Call ``fn(*args)`` after ``delay`` (plain callback, no process).

        The returned event is recycled through the timeout pool once it
        has fired; callers must not hold a reference past that point."""
        if delay < 0:
            raise ScheduleInPastError(f"negative timeout: {delay!r}")
        ev = self._call_event(fn, args)
        self._seq += 1
        self._push((self._now + delay, self._seq, ev))
        return ev

    def schedule_call_at(self, at_time: float, fn: Callable[..., None],
                         *args: Any) -> Event:
        """Call ``fn(*args)`` at the absolute instant ``at_time``.

        Unlike ``schedule_call(at_time - now, ...)`` the target is used
        verbatim — no ``now + delay`` round trip — so a callback chain
        can fire exactly at an instant computed arithmetically (a
        serialization end, a DMA completion).
        The returned event is pool-recycled like :meth:`schedule_call`'s.
        """
        if at_time < self._now:
            raise ScheduleInPastError(
                f"cannot schedule call at {at_time!r} < now {self._now!r}")
        ev = self._call_event(fn, args)
        self._seq += 1
        self._push((at_time, self._seq, ev))
        return ev

    def every(self, interval: float, fn: Callable[..., None],
              *args: Any, while_pending: bool = False) -> PeriodicCall:
        """Call ``fn(*args)`` every ``interval`` seconds until cancelled.

        The first firing happens at ``now + interval``.  Returns the
        :class:`PeriodicCall` handle; call its :meth:`~PeriodicCall.cancel`
        to stop the ticking.  ``while_pending=True`` makes the call
        self-terminating: it re-arms only while other events remain
        pending, so drain-mode runs still finish."""
        return PeriodicCall(self, interval, fn, args,
                            while_pending=while_pending)

    # -- engine internals ---------------------------------------------------
    def _schedule(self, event: Event, delay: float) -> None:
        if delay < 0:
            raise ScheduleInPastError(
                f"cannot schedule event {delay!r}s in the past")
        self._seq += 1
        self._push((self._now + delay, self._seq, event))

    def _schedule_at(self, event: Event, at_time: float) -> None:
        """Fast-path scheduling at an absolute time for trusted internal
        callers: skips the negative-delay validation of :meth:`_schedule`
        (the caller guarantees ``at_time >= now``)."""
        self._seq += 1
        self._push((at_time, self._seq, event))

    def _record_crash(self, process: Process, exc: BaseException) -> None:
        self._crashes.append((process, exc))

    def _raise_crash(self) -> None:
        process, exc = self._crashes.popleft()
        raise SimulationError(
            f"process {process.name!r} crashed: {exc!r}") from exc

    # -- execution -------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next event, or ``float('inf')`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        self._now, _, event = _heappop(self._queue)
        callbacks = event.callbacks
        event.callbacks = None
        event._processed = True
        if callbacks:
            for fn in callbacks:
                fn(event)
        if event._pooled:
            self._timeout_pool.append(event)
        if self._crashes:
            self._raise_crash()

    def run(self, until: Any = None) -> Any:
        """Run events until the queue empties, ``until`` fires or time passes.

        ``until`` may be ``None`` (drain the queue), a number (stop when the
        clock reaches it) or an :class:`Event` (stop when it fires; its
        value is returned — an exception value is raised).

        The dispatch loop is :meth:`step` inlined three ways (drain /
        until-event / horizon): per-event dispatch is the simulator's
        single hottest path, and the method-call + attribute-lookup
        overhead of delegating to ``step()`` is measurable at millions
        of events per run.  When engine self-profiling is enabled the
        whole call is handed to :meth:`_run_profiled` instead, keeping
        this loop free of instrumentation.
        """
        if self._profiler is not None:
            return self._run_profiled(until)
        queue = self._queue
        pool = self._timeout_pool
        crashes = self._crashes
        if until is None:
            while queue:
                self._now, _, event = _heappop(queue)
                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                if callbacks:
                    for fn in callbacks:
                        fn(event)
                if event._pooled:
                    pool.append(event)
                if crashes:
                    self._raise_crash()
            return None
        if isinstance(until, Event):
            # `callbacks` flips to None exactly when the event is
            # processed — that is the loop condition.  The no-op marks
            # `until` as waited-on so a failing process delivers its
            # exception here instead of recording an unwaited crash.
            if until.callbacks is not None:
                until.callbacks.append(_noop)
            while until.callbacks is not None:
                if not queue:
                    raise SimulationError(
                        "event queue drained before `until` event fired")
                self._now, _, event = _heappop(queue)
                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                if callbacks:
                    for fn in callbacks:
                        fn(event)
                if event._pooled:
                    pool.append(event)
                if crashes:
                    self._raise_crash()
            if not until._ok:
                raise until._value from None
            return until._value
        horizon = float(until)
        if horizon < self._now:
            raise ScheduleInPastError(
                f"run(until={horizon!r}) is before now={self._now!r}")
        while queue and queue[0][0] <= horizon:
            self._now, _, event = _heappop(queue)
            callbacks = event.callbacks
            event.callbacks = None
            event._processed = True
            if callbacks:
                for fn in callbacks:
                    fn(event)
            if event._pooled:
                pool.append(event)
            if crashes:
                self._raise_crash()
        self._now = horizon
        return None

    # -- self-profiling -------------------------------------------------------
    def _step_profiled(self, prof: Any) -> None:
        """One :meth:`step` with event/heap accounting and wall-clock
        attribution of each callback to its owning component."""
        queue = self._queue
        if len(queue) > prof.heap_hwm:
            prof.heap_hwm = len(queue)
        self._now, _, event = _heappop(queue)
        tname = type(event).__name__
        counts = prof.event_counts
        counts[tname] = counts.get(tname, 0) + 1
        prof.events_total += 1
        callbacks = event.callbacks
        event.callbacks = None
        event._processed = True
        if callbacks:
            cb_counts = prof.callback_counts
            cb_time = prof.callback_time_s
            for fn in callbacks:
                owner = getattr(fn, "__self__", None)
                if isinstance(owner, Process):
                    label = _component_of(owner.name)
                else:
                    # schedule_call events run through the shared
                    # trampoline, and a periodic call's firing through
                    # PeriodicCall._fire; charge the function they call.
                    target = event.fn if fn is _run_call else fn
                    periodic = getattr(target, "__self__", None)
                    if isinstance(periodic, PeriodicCall):
                        target = periodic.fn
                    label = _callback_component(target)
                start = perf_counter()  # reprolint: disable=RPR002 -- profiler wall-clock accounting; never feeds back into sim state
                fn(event)
                elapsed = perf_counter() - start  # reprolint: disable=RPR002 -- profiler wall-clock accounting; never feeds back into sim state
                cb_counts[label] = cb_counts.get(label, 0) + 1
                cb_time[label] = cb_time.get(label, 0.0) + elapsed
        if event._pooled:
            self._timeout_pool.append(event)
        if self._crashes:
            self._raise_crash()

    def _run_profiled(self, until: Any = None) -> Any:
        """:meth:`run` with the profiled dispatch loop (same three
        modes, same semantics, plus accounting)."""
        prof = self._profiler
        run_start = perf_counter()  # reprolint: disable=RPR002 -- profiler wall-clock accounting; never feeds back into sim state
        try:
            if until is None:
                while self.pending_count():
                    self._step_profiled(prof)
                return None
            if isinstance(until, Event):
                if until.callbacks is not None:
                    until.callbacks.append(_noop)
                while until.callbacks is not None:
                    if not self.pending_count():
                        raise SimulationError(
                            "event queue drained before `until` event fired")
                    self._step_profiled(prof)
                if not until._ok:
                    raise until._value from None
                return until._value
            horizon = float(until)
            if horizon < self._now:
                raise ScheduleInPastError(
                    f"run(until={horizon!r}) is before now={self._now!r}")
            while self.pending_count() and self.peek() <= horizon:
                self._step_profiled(prof)
            self._now = horizon
            return None
        finally:
            prof.wall_time_s += perf_counter() - run_start  # reprolint: disable=RPR002 -- profiler wall-clock accounting; never feeds back into sim state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Environment now={self._now:.9f} "
                f"pending={self.pending_count()}>")
