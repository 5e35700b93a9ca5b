"""The sampling profiler: sidecar-thread sampling, frame
classification into engine layers, and the metrics and run-log
payloads it publishes."""

import json
import sys
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import (SamplingProfiler, classify_frame,
                               profiled, publish_engine_rates)
from repro.sim.engine import Simulator


def _event_loop_rate(n_events):
    """Self-rescheduling no-op events per second through the heap."""
    sim = Simulator()
    count = [0]

    def tick():
        count[0] += 1
        if count[0] < n_events:
            sim.schedule(1e-6, tick)

    sim.schedule(0.0, tick)
    started = time.perf_counter()
    sim.run()
    return n_events / (time.perf_counter() - started)


def _busy(deadline_s):
    total = 0
    deadline = time.perf_counter() + deadline_s
    while time.perf_counter() < deadline:
        total += sum(range(100))
    return total


class TestSamplingProfiler:
    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError, match="interval"):
            SamplingProfiler(interval=0.0)

    def test_double_start_raises(self):
        profiler = SamplingProfiler()
        profiler.start()
        try:
            with pytest.raises(RuntimeError, match="running"):
                profiler.start()
        finally:
            profiler.stop()

    def test_samples_land_and_shares_normalize(self):
        with SamplingProfiler(interval=0.001) as profiler:
            _busy(0.1)
        assert profiler.total_samples > 0
        shares = profiler.shares()
        assert shares and sum(shares.values()) \
            == pytest.approx(1.0)
        # Pure-python busywork in a test file is not engine code.
        assert "other" in shares
        assert "other" in profiler.format_report()

    def test_classify_frame_outside_engine_is_other(self):
        import sys
        assert classify_frame(sys._getframe()) == "other"

    def test_classify_frame_in_dde_integrator_is_fluid(self):
        from repro.core.fluid import dde
        namespace = {}
        exec(compile("import sys\nframe = sys._getframe()",
                     dde.__file__, "exec"), namespace)
        assert classify_frame(namespace["frame"]) == "fluid"

    def test_classify_frame_inside_schedule_is_scheduler(self):
        frames = []

        class Probe(float):
            """A time whose comparison records the comparing frame."""

            def __lt__(self, other):
                frames.append(sys._getframe(1))
                return float(self) < other

        class Handle(list):
            def __setitem__(self, index, value):
                frames.append(sys._getframe(1))
                super().__setitem__(index, value)

        Simulator().schedule(Probe(1.0), lambda: None)
        Simulator().schedule_at(Probe(2.0), lambda: None)
        Simulator().cancel(Handle([3.0, 0, None, ()]))
        assert [frame.f_code.co_name for frame in frames] == [
            "schedule", "schedule_at", "cancel"]
        assert [classify_frame(frame) for frame in frames] == \
            ["scheduler"] * 3
        # The run loop in the same module stays ``engine``.
        sim = Simulator()
        sim.schedule(0.5, lambda: frames.append(sys._getframe(1)))
        sim.run()
        assert frames[-1].f_code.co_name == "run"
        assert classify_frame(frames[-1]) == "engine"

    def test_publish_writes_gauges(self):
        registry = MetricsRegistry()
        with SamplingProfiler(interval=0.001) as profiler:
            _busy(0.05)
        profiler.publish(registry=registry)
        snapshot = registry.snapshot()
        assert snapshot["obs.profile.samples_total"]["value"] \
            == profiler.total_samples > 0
        assert snapshot["obs.profile.other_share"]["value"] > 0

    def test_profiled_contextmanager_publishes(self):
        from repro.obs.metrics import use_registry
        with use_registry(MetricsRegistry()) as registry:
            with profiled(interval=0.001) as profiler:
                _busy(0.05)
            snapshot = registry.snapshot()
        assert profiler.total_samples > 0
        assert "obs.profile.samples_total" in snapshot

    def test_publish_engine_rates(self):
        class FakeSim:
            events_processed = 1000
            packets_processed = 400

        registry = MetricsRegistry()
        rates = publish_engine_rates(FakeSim(), wall_s=2.0,
                                     registry=registry)
        assert rates == {"events_per_sec": 500.0,
                         "pkts_per_sec": 200.0}
        snapshot = registry.snapshot()
        assert snapshot["sim.engine.events_per_sec"]["value"] \
            == 500.0
        assert snapshot["sim.engine.pkts_per_sec"]["value"] == 200.0

    def test_report_is_runlog_payload(self):
        with SamplingProfiler(interval=0.001) as profiler:
            _busy(0.05)
        report = profiler.report()
        assert report["samples"] == profiler.total_samples
        assert report["interval_s"] == 0.001
        assert report["wall_s"] > 0
        json.dumps(report)  # JSON-ready, as the runlog requires

    def test_overhead_within_bound(self):
        """Sampling from the sidecar must not tax the event loop.

        A loose 0.5 floor on the on/off throughput ratio guards
        against a regression to per-event instrumentation without
        inviting timer flake.
        """
        off_rate = _event_loop_rate(30_000)
        profiler = SamplingProfiler()
        profiler.start()
        try:
            on_rate = _event_loop_rate(30_000)
        finally:
            profiler.stop()
        assert off_rate > 0
        assert on_rate / off_rate > 0.5

    def test_installs_no_trace_or_profile_hook(self):
        # The zero-per-event-cost contract: the sidecar reads stacks
        # from outside and never hooks the profiled thread.  (Compared
        # against the starting hooks, not None, so a coverage tracer
        # does not fail the test.)
        before = (sys.gettrace(), sys.getprofile())
        profiler = SamplingProfiler(interval=0.001)
        profiler.start()
        try:
            _busy(0.05)
            during = (sys.gettrace(), sys.getprofile())
        finally:
            profiler.stop()
        assert during == before
        assert profiler.total_samples > 0
