"""Event engine: ordering, cancellation, determinism, watchdogs."""

import random

import pytest

from repro.sim.engine import SimulationAborted, Simulator


def _random_workload(sim, rng, total_events, max_events=None):
    """Drive ``sim`` with a randomized self-extending schedule.

    Exercises every ordering hazard at once: simultaneous events
    (zero-delay ties resolved by scheduling order), far-future jumps
    and cancellations.  With ``max_events`` the run is cut into
    watchdog-aborted slices and resumed until the heap drains.
    Returns the ``(time, tag)`` serve order and the abort count.
    """
    trace = []
    handles = []

    def fire(tag):
        trace.append((sim.now, tag))
        if len(trace) >= total_events:
            return
        for _ in range(rng.randrange(3)):
            delay = rng.choice(
                [0.0, 0.0, 1e-9, rng.random() * 1e-6,
                 rng.random() * 1e-4, rng.random() * 1e-2])
            handles.append(sim.schedule(delay, fire, len(trace)))
        if handles and rng.random() < 0.05:
            sim.cancel(handles[rng.randrange(len(handles))])

    for i in range(50):
        handles.append(sim.schedule(rng.random() * 1e-4, fire, -i))
    for i in range(0, 50, 7):
        sim.cancel(handles[i])
    aborts = 0
    while True:
        try:
            sim.run(max_events=max_events)
            break
        except SimulationAborted as exc:
            aborts += 1
            assert exc.reason == "max_events"
            assert exc.events_processed == max_events
    return trace, aborts


class TestScheduling:
    def test_time_ordering(self):
        sim = Simulator()
        log = []
        sim.schedule(0.3, lambda: log.append("c"))
        sim.schedule(0.1, lambda: log.append("a"))
        sim.schedule(0.2, lambda: log.append("b"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_fifo_for_simultaneous_events(self):
        sim = Simulator()
        log = []
        for name in "abcde":
            sim.schedule(0.5, lambda n=name: log.append(n))
        sim.run()
        assert log == list("abcde")

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [pytest.approx(1.5)]

    def test_schedule_at_absolute(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(2.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [pytest.approx(2.0)]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_scheduling_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: sim.schedule_at(0.5, lambda: None))
        with pytest.raises(ValueError):
            sim.run()

    def test_randomized_workload_serves_in_time_order(self):
        trace, _ = _random_workload(Simulator(), random.Random(3),
                                    total_events=3000)
        assert len(trace) >= 3000
        times = [t for t, _ in trace]
        assert times == sorted(times)

    def test_events_can_schedule_events(self):
        sim = Simulator()
        log = []

        def chain(depth):
            log.append(sim.now)
            if depth > 0:
                sim.schedule(0.1, lambda: chain(depth - 1))

        sim.schedule(0.0, lambda: chain(3))
        sim.run()
        assert log == pytest.approx([0.0, 0.1, 0.2, 0.3])


class TestRunControl:
    def test_run_until_leaves_future_events(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append("early"))
        sim.schedule(3.0, lambda: log.append("late"))
        sim.run(until=2.0)
        assert log == ["early"]
        assert sim.now == pytest.approx(2.0)
        sim.run()
        assert log == ["early", "late"]

    def test_run_until_advances_clock_when_idle(self):
        sim = Simulator()
        sim.run(until=5.0)
        assert sim.now == pytest.approx(5.0)

    def test_cancelled_event_skipped(self):
        sim = Simulator()
        log = []
        event = sim.schedule(1.0, lambda: log.append("no"))
        sim.schedule(2.0, lambda: log.append("yes"))
        sim.cancel(event)
        assert sim.pending_events == 2  # lazy removal
        sim.run()
        assert log == ["yes"]
        assert sim.pending_events == 0

    def test_cancel_twice_is_a_no_op(self):
        sim = Simulator()
        log = []
        event = sim.schedule(1.0, lambda: log.append("no"))
        sim.schedule(2.0, lambda: log.append("yes"))
        sim.cancel(event)
        sim.cancel(event)
        assert sim.pending_events == 2
        sim.run()
        assert log == ["yes"]

    def test_cancel_after_firing_is_a_no_op(self):
        sim = Simulator()
        log = []
        event = sim.schedule(1.0, lambda: log.append("fired"))
        later = sim.schedule(2.0, lambda: log.append("later"))
        sim.run(until=1.5)
        sim.cancel(event)
        assert log == ["fired"]
        assert sim.pending_events == 1
        sim.run()
        assert log == ["fired", "later"]
        assert later[0] == 2.0

    def test_cancelled_entries_count_until_popped(self):
        sim = Simulator()
        log = []
        early = sim.schedule(1.0, lambda: log.append("early"))
        late = sim.schedule(3.0, lambda: log.append("late"))
        sim.cancel(early)
        sim.cancel(late)
        assert sim.pending_events == 2
        sim.run(until=2.0)  # pops the cancelled 1.0 entry only
        assert sim.pending_events == 1
        sim.run()
        assert sim.pending_events == 0
        assert log == []

    def test_handle_carries_its_time(self):
        sim = Simulator()
        sim.schedule(0.5, lambda: None)
        sim.run()
        assert sim.schedule(0.25, lambda: None)[0] == 0.75
        assert sim.schedule_at(2.0, lambda: None)[0] == 2.0

    def test_stop_aborts_run(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: (log.append("one"), sim.stop()))
        sim.schedule(2.0, lambda: log.append("two"))
        sim.run()
        assert log == ["one"]

    def test_max_events_guard(self):
        sim = Simulator()

        def forever():
            sim.schedule(0.1, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(RuntimeError):
            sim.run(max_events=100)

    def test_cancel_among_simultaneous_events(self):
        sim = Simulator()
        log = []
        sim.schedule(0.5, lambda: log.append("a"))
        doomed = sim.schedule(0.5, lambda: log.append("b"))
        sim.schedule(0.5, lambda: log.append("c"))
        sim.cancel(doomed)
        sim.run()
        assert log == ["a", "c"]

    def test_callback_cancels_simultaneous_sibling(self):
        """An event may cancel another one scheduled at the same time
        that has not fired yet -- lazy removal must honour it."""
        sim = Simulator()
        log = []
        events = {}
        sim.schedule(1.0, lambda: sim.cancel(events["victim"]))
        events["victim"] = sim.schedule(1.0, lambda: log.append("victim"))
        sim.run()
        assert log == []
        assert sim.pending_events == 0

    def test_stop_then_rerun_processes_remainder(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: (log.append("one"), sim.stop()))
        sim.schedule(2.0, lambda: log.append("two"))
        sim.schedule(3.0, lambda: log.append("three"))
        sim.run()
        assert log == ["one"]
        assert sim.pending_events == 2
        sim.run()  # a stopped simulator is immediately resumable
        assert log == ["one", "two", "three"]

    def test_stop_inside_callback_skips_same_timestamp_peer(self):
        """stop() takes effect after the current callback; a peer at
        the same timestamp waits for the next run() call."""
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: (log.append("first"), sim.stop()))
        sim.schedule(1.0, lambda: log.append("second"))
        sim.run()
        assert log == ["first"]
        sim.run()
        assert log == ["first", "second"]
        assert sim.now == pytest.approx(1.0)

    def test_until_less_run_with_stopped_sampler_returns(self):
        # A sampler reschedules itself through the heap, so without
        # stop= an until-less run() would never drain once the work
        # ends; with it the run returns.  max_events turns a hang
        # into a failure.
        from repro.obs.health import (HealthMonitor,
                                      QueueOscillationDetector)
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 2_000:
                sim.schedule(1e-6, tick)

        monitor = HealthMonitor(
            [QueueOscillationDetector(window=1e-3, check_interval=1e-3)],
            session=None)
        samples = []

        def sample(now):
            samples.append(now)
            monitor.sample(now, queue=count[0])

        sim.sample_every(2e-5, sample, stop=2e-3)
        sim.schedule(0.0, tick)
        sim.run(max_events=10_000)
        assert count[0] == 2_000
        assert sim.pending_events == 0
        assert samples and samples[-1] <= 2e-3

    def test_cancel_survives_stop_and_rerun(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: sim.stop())
        doomed = sim.schedule(2.0, lambda: log.append("no"))
        sim.run()
        sim.cancel(doomed)
        sim.run()
        assert log == []


class TestWatchdogs:
    def test_abort_carries_engine_state(self):
        sim = Simulator()

        def forever():
            sim.schedule(0.1, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(SimulationAborted) as excinfo:
            sim.run(max_events=100)
        abort = excinfo.value
        assert abort.reason == "max_events"
        assert abort.events_processed == 100
        assert abort.sim_time == pytest.approx(9.9)
        assert abort.heap_depth == 1
        assert "max_events=100" in str(abort)

    def test_aborted_run_is_resumable(self):
        sim = Simulator()
        log = []
        for i in range(10):
            sim.schedule(0.1 * (i + 1), lambda i=i: log.append(i))
        with pytest.raises(SimulationAborted):
            sim.run(max_events=4)
        # Clock sits at the last processed event; heap is intact.
        assert sim.now == pytest.approx(0.4)
        assert log == [0, 1, 2, 3]
        assert sim.pending_events == 6
        sim.run()
        assert log == list(range(10))

    def test_repeated_max_events_aborts_resume_exactly(self):
        reference, _ = _random_workload(Simulator(), random.Random(99),
                                        total_events=2000)
        trace, aborts = _random_workload(Simulator(), random.Random(99),
                                         total_events=2000,
                                         max_events=137)
        assert aborts >= 2  # actually exercised mid-run resume
        assert trace == reference

    def test_wall_clock_watchdog_fires(self):
        sim = Simulator()

        def forever():
            sim.schedule(0.1, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(SimulationAborted) as excinfo:
            sim.run(max_wall_seconds=0.0)
        assert excinfo.value.reason == "wall_clock"
        # Checked once per stride, so it fired at a stride boundary.
        assert excinfo.value.events_processed % 1024 == 0
        # Still resumable (the chain reschedules forever, so bound it).
        with pytest.raises(SimulationAborted):
            sim.run(max_events=10)
        assert sim.events_processed >= 1034

    def test_wall_clock_watchdog_quiet_when_fast(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(0.1, lambda: None)
        sim.run(max_wall_seconds=60.0)
        assert sim.events_processed == 5

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(7):
            sim.schedule(0.1, lambda: None)
        sim.run()
        assert sim.events_processed == 7

    def test_determinism_across_instances(self):
        def build_and_run():
            sim = Simulator()
            log = []
            sim.schedule(0.2, lambda: log.append(("b", sim.now)))
            sim.schedule(0.2, lambda: log.append(("c", sim.now)))
            sim.schedule(0.1, lambda: log.append(("a", sim.now)))
            sim.run()
            return log

        assert build_and_run() == build_and_run()


class TestAbortRunlogEvent:
    """Watchdog aborts surface as structured run-log events."""

    def _runaway(self, sim):
        def forever():
            sim.schedule(0.1, forever)
        sim.schedule(0.0, forever)

    def test_max_events_abort_emits_event(self, tmp_path):
        from repro.obs.runlog import read_events
        from repro.obs.telemetry import Telemetry

        bundle = Telemetry.ensure(tmp_path, experiment="abort-smoke")
        with bundle.activate(params={}):
            sim = Simulator()
            self._runaway(sim)
            with pytest.raises(SimulationAborted):
                sim.run(max_events=50)
        aborts = [e for e in read_events(bundle.runlog_path)
                  if e["type"] == "abort"]
        assert len(aborts) == 1
        event = aborts[0]
        assert event["reason"] == "max_events"
        assert event["events_processed"] == 50
        assert event["sim_time"] == pytest.approx(4.9)
        assert event["pending"] == 1

    def test_wall_clock_abort_emits_event(self, tmp_path):
        from repro.obs.runlog import read_events
        from repro.obs.telemetry import Telemetry

        bundle = Telemetry.ensure(tmp_path, experiment="abort-smoke")
        with bundle.activate(params={}):
            sim = Simulator()
            self._runaway(sim)
            with pytest.raises(SimulationAborted):
                sim.run(max_wall_seconds=0.0)
        aborts = [e for e in read_events(bundle.runlog_path)
                  if e["type"] == "abort"]
        assert [e["reason"] for e in aborts] == ["wall_clock"]

    def test_no_telemetry_no_event_no_crash(self):
        # The rare path must stay safe without an active bundle.
        sim = Simulator()
        self._runaway(sim)
        with pytest.raises(SimulationAborted):
            sim.run(max_events=10)
