"""Discrete-event simulation engine.

A minimal, fast event loop in the style of ns-3's scheduler: events are
``[time, sequence, callback, args]`` lists in a binary heap; the
sequence number makes ordering deterministic for simultaneous events
(FIFO by scheduling order), which keeps every simulation in this
package exactly reproducible.  The heap entry is also the event
handle: :meth:`Simulator.schedule` returns it, ``event[0]`` is its
time and :meth:`Simulator.cancel` clears its callback slot.

Components never advance time themselves; they schedule callbacks and
read :attr:`Simulator.now`.

Runaway simulations (event storms, accidental infinite timer chains,
pathological fault scenarios) are caught by two watchdogs on
:meth:`Simulator.run` -- ``max_events`` and ``max_wall_seconds`` --
which abort with a structured :class:`SimulationAborted` carrying the
engine state at the abort point.  The simulator itself is left
consistent and resumable: the clock sits at the last processed event
and ``run`` can simply be called again.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
import time as _time
from typing import Any, Callable, Optional

from repro.obs import metrics as _metrics

#: How many events to process between wall-clock watchdog checks.
#: ``time.monotonic()`` is cheap but not free; the event loop runs
#: millions of events per second, so polling every event would cost
#: more than the events themselves.
WALL_CHECK_STRIDE = 1024


class SimulationAborted(RuntimeError):
    """A watchdog stopped :meth:`Simulator.run` before completion.

    Subclasses ``RuntimeError`` for backward compatibility with callers
    that guarded the old ``max_events`` behaviour.  The simulator is
    left in a *resumable* state: all events processed so far are
    committed, the clock sits at the last processed event, and the
    pending heap is intact -- call ``run`` again to continue.

    Attributes
    ----------
    reason:
        Which watchdog fired (``"max_events"`` or ``"wall_clock"``)
        or a caller-supplied tag.
    events_processed:
        Events executed by the aborted ``run`` call.
    sim_time:
        Simulation clock at the abort, seconds.
    heap_depth:
        Events still pending when the run aborted.
    """

    def __init__(self, reason: str, events_processed: int,
                 sim_time: float, heap_depth: int,
                 detail: str = ""):
        self.reason = reason
        self.events_processed = events_processed
        self.sim_time = sim_time
        self.heap_depth = heap_depth
        self.detail = detail
        message = (f"simulation aborted ({reason}) at t={sim_time:.6f}s: "
                   f"{events_processed} events processed, "
                   f"{heap_depth} still pending")
        if detail:
            message += f" -- {detail}"
        super().__init__(message)


class PeriodicSampler:
    """Handle for a :meth:`Simulator.sample_every` subscription.

    Self-reschedules through the ordinary event heap, so samples are
    totally ordered with the rest of the simulation and cost nothing
    when no sampler is installed.  ``cancel`` stops future samples;
    the pending event is lazily removed like any cancelled event.
    """

    __slots__ = ("sim", "interval", "callback", "stop_time", "_event")

    def __init__(self, sim: "Simulator", interval: float,
                 callback: Callable[[float], Any],
                 start: float, stop: Optional[float]):
        if interval <= 0:
            raise ValueError(
                f"interval must be positive, got {interval}")
        self.sim = sim
        self.interval = interval
        self.callback = callback
        self.stop_time = stop
        self._event: Optional[list] = sim.schedule_at(
            max(start, sim.now), self._fire)

    def _fire(self) -> None:
        now = self.sim.now
        if self.stop_time is not None and now > self.stop_time:
            self._event = None
            return
        self.callback(now)
        self._event = self.sim.schedule(self.interval, self._fire)

    def cancel(self) -> None:
        """Stop sampling; safe to call more than once."""
        if self._event is not None:
            self.sim.cancel(self._event)
            self._event = None


class Simulator:
    """Event-driven simulation clock and scheduler."""

    __slots__ = ("now", "_heap", "_sequence", "_running", "_processed")

    def __init__(self):
        #: Current simulation time, seconds.  A plain attribute, not a
        #: property: the packet path reads it several times per event.
        #: Only the run loop writes it.
        self.now = 0.0
        self._heap: list = []
        self._sequence = itertools.count()
        self._running = False
        self._processed = 0

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (for perf reporting)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Scheduled events not yet executed (incl. cancelled)."""
        return len(self._heap)

    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> list:
        """Run ``callback(*args)`` after ``delay`` seconds of sim time.

        Returns the event handle, the heap entry itself:
        ``[time, sequence, callback, args]``; read ``event[0]``, and
        change it only through :meth:`cancel`.  ``args`` are passed
        positionally -- ``schedule(d, fn, arg)`` instead of
        ``schedule(d, lambda: fn(arg))`` spares the event loop one
        closure allocation and one extra frame per event.
        """
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        event = [self.now + delay, next(self._sequence), callback, args]
        heappush(self._heap, event)
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any) -> list:
        """Run ``callback(*args)`` at absolute simulated time ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past: {time} < now={self.now}")
        event = [time, next(self._sequence), callback, args]
        heappush(self._heap, event)
        return event

    @staticmethod
    def cancel(event: list) -> None:
        """Prevent ``event`` from firing (lazy removal in the heap).

        A no-op on an event that was already cancelled or has fired.
        """
        event[2] = None

    def sample_every(self, interval: float,
                     callback: Callable[[float], Any],
                     start: float = 0.0,
                     stop: Optional[float] = None) -> PeriodicSampler:
        """Invoke ``callback(now)`` every ``interval`` sim seconds.

        The uniform in-run snapshot hook: health detectors, monitors
        and checkpointing all subscribe through this instead of
        hand-rolling self-rescheduling callbacks.  Sampling rides the
        ordinary event heap -- a simulation with no samplers pays
        nothing, and one with samplers pays exactly one extra event
        per sample.  ``start`` is an absolute time (clamped to now);
        past ``stop`` the sampler unschedules itself so it neither
        keeps the heap populated nor drains watchdog event budgets.
        """
        return PeriodicSampler(self, interval, callback, start, stop)

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None,
            max_wall_seconds: Optional[float] = None) -> None:
        """Process events in time order.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time (the clock is left
            at ``until``).  None runs until the heap empties.
        max_events:
            Event-storm watchdog: abort with :class:`SimulationAborted`
            after this many events.  The simulator stays resumable.
        max_wall_seconds:
            Wall-clock watchdog: abort (with :class:`SimulationAborted`)
            once this much real time has elapsed, checked every
            :data:`WALL_CHECK_STRIDE` events.  Guards against
            simulations that make sim-time progress but will never
            finish within a usable budget.
        """
        self._running = True
        processed = 0
        heap = self._heap
        pop = heappop
        horizon = float("inf") if until is None else until
        wall_begin = _time.monotonic()
        wall_start = wall_begin if max_wall_seconds is not None \
            else None
        watchdogs = max_events is not None or wall_start is not None
        try:
            if not watchdogs:
                # Watchdog-free fast path: the comparisons below run
                # once per event, millions of times per second, so the
                # common case earns its own tight loop.
                while heap and self._running:
                    item = heap[0]
                    time = item[0]
                    if time > horizon:
                        break
                    pop(heap)
                    callback = item[2]
                    if callback is None:
                        continue
                    self.now = time
                    callback(*item[3])
                    processed += 1
            else:
                while heap and self._running:
                    item = heap[0]
                    time = item[0]
                    if time > horizon:
                        break
                    pop(heap)
                    callback = item[2]
                    if callback is None:
                        continue
                    self.now = time
                    callback(*item[3])
                    processed += 1
                    if max_events is not None and \
                            processed >= max_events:
                        raise self._abort(
                            "max_events", processed, len(heap),
                            f"exceeded max_events={max_events}")
                    if wall_start is not None and \
                            processed % WALL_CHECK_STRIDE == 0 and \
                            _time.monotonic() - wall_start \
                            > max_wall_seconds:
                        raise self._abort(
                            "wall_clock", processed, len(heap),
                            f"exceeded max_wall_seconds="
                            f"{max_wall_seconds}")
            if until is not None and self.now < until:
                self.now = until
        finally:
            # Always leave the simulator resumable: the clock is
            # consistent (last processed event, or ``until``) and the
            # heap holds exactly the unprocessed events.  The lifetime
            # event counter is settled here so aborted runs (watchdogs,
            # callback exceptions) still account their work.
            self._processed += processed
            self._running = False
            # Telemetry publishes per *run* call, never per event --
            # with telemetry off these are no-op calls on the
            # process-wide null registry (see repro.obs.metrics), so
            # the hot loop above is byte-for-byte unaffected.
            registry = _metrics.get_registry()
            registry.counter("sim.engine.runs_total").inc()
            registry.counter("sim.engine.events_total").inc(processed)
            registry.gauge("sim.engine.pending_events").set(len(heap))
            registry.gauge("sim.engine.sim_time_s").set(self.now)
            wall_s = _time.monotonic() - wall_begin
            if processed and wall_s > 0:
                registry.gauge("sim.engine.events_per_sec").set(
                    processed / wall_s)

    def _abort_metrics(self, reason: str) -> None:
        """Count a watchdog abort (rare path, outside the fast loop)."""
        _metrics.get_registry().counter(
            f"sim.engine.aborts_{reason}_total").inc()

    def _abort(self, reason: str, processed: int, pending: int,
               detail: str) -> SimulationAborted:
        """Build the watchdog exception, accounting the abort first.

        Bumps the abort counter and -- when a telemetry bundle is
        active -- emits a structured ``abort`` run-log event (cause,
        sim time, events processed) *before* the raise, so ``watch``
        and ``report`` show why a run died instead of going silent.
        Rare path: the import and the ambient lookup cost nothing in
        the hot loops.
        """
        self._abort_metrics(reason)
        from repro.obs import telemetry as _telemetry
        active = _telemetry.current()
        if active is not None:
            try:
                active.run_log.abort(
                    reason=reason, sim_time=self.now,
                    events_processed=processed, pending=pending,
                    detail=detail)
            except ValueError:
                pass  # run log already finished/closed
        return SimulationAborted(reason, processed, self.now,
                                 pending, detail=detail)

    def stop(self) -> None:
        """Abort :meth:`run` after the current callback returns."""
        self._running = False
