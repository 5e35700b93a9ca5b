"""The live health layer: detectors, monitors, sessions, wiring."""

import numpy as np
import pytest

from repro.obs import health as H
from repro.obs.runlog import read_events, validate_events
from repro.obs.telemetry import Telemetry


def feed(monitor, times, **series):
    """Drive a monitor with parallel signal arrays."""
    for index, t in enumerate(times):
        monitor.sample(t, **{name: values[index]
                             for name, values in series.items()})
    return monitor.finalize()


class TestQueueOscillationDetector:
    times = np.arange(0.0, 0.03, 2e-5)

    def test_limit_cycle_fires_critical(self):
        queue = 500 + 400 * np.sin(2 * np.pi * 5e3 * self.times)
        monitor = H.HealthMonitor(
            [H.QueueOscillationDetector(window=5e-3,
                                        check_interval=1e-3)])
        findings = feed(monitor, self.times, queue=queue)
        kinds = {f.kind for f in findings}
        assert "limit_cycle" in kinds
        assert monitor.verdict == "pathological"

    def test_fires_mid_run_not_only_at_finish(self):
        queue = 500 + 400 * np.sin(2 * np.pi * 5e3 * self.times)
        detector = H.QueueOscillationDetector(window=5e-3,
                                              check_interval=1e-3)
        monitor = H.HealthMonitor([detector])
        fired_at = None
        for t, q in zip(self.times, queue):
            monitor.sample(t, queue=q)
            if monitor.findings and fired_at is None:
                fired_at = t
        assert fired_at is not None
        assert fired_at < self.times[-1]

    def test_steady_queue_is_clean(self):
        rng = np.random.default_rng(7)
        queue = 500 + rng.normal(0, 5, self.times.size)
        monitor = H.HealthMonitor(
            [H.QueueOscillationDetector(window=5e-3,
                                        check_interval=1e-3)])
        assert feed(monitor, self.times, queue=queue) == []
        assert monitor.verdict == "clean"

    def test_startup_transient_not_judged(self):
        # Ramp-and-settle of a stable system: large swing early,
        # flat after -- must NOT fire even though the early window
        # has a huge CoV.
        queue = np.where(self.times < 5e-3,
                         1000 * np.sin(2 * np.pi * 400 * self.times),
                         500.0)
        monitor = H.HealthMonitor(
            [H.QueueOscillationDetector(window=5e-3,
                                        check_interval=1e-3)])
        assert feed(monitor, self.times, queue=queue) == []

    def test_fixed_point_deviation_warns(self):
        queue = np.full(self.times.size, 900.0)
        monitor = H.HealthMonitor(
            [H.QueueOscillationDetector(window=5e-3, q_star=100.0)])
        findings = feed(monitor, self.times, queue=queue)
        assert [f.kind for f in findings] == ["fixed_point_deviation"]
        assert findings[0].severity == "warning"
        assert monitor.verdict == "warning"

    def test_matching_fixed_point_is_clean(self):
        queue = np.full(self.times.size, 105.0)
        monitor = H.HealthMonitor(
            [H.QueueOscillationDetector(window=5e-3, q_star=100.0)])
        assert feed(monitor, self.times, queue=queue) == []

    def test_rewind_resets_buffers(self):
        detector = H.QueueOscillationDetector(window=5e-3)
        detector.sample(1e-3, {"queue": 10.0})
        detector.sample(2e-3, {"queue": 20.0})
        detector.sample(0.0, {"queue": 0.0})  # integrator retry
        assert len(detector._times) == 1

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            H.QueueOscillationDetector(window=0.0)


class TestUnfairnessDriftDetector:
    times = np.arange(0.0, 0.02, 2e-5)

    def test_persistent_unfairness_fires_critical(self):
        monitor = H.HealthMonitor(
            [H.UnfairnessDriftDetector(window=5e-3)])
        rates = [(7.0, 3.0)] * self.times.size
        findings = feed(monitor, self.times, rates=rates)
        assert [f.kind for f in findings] == ["persistent_unfairness"]
        assert monitor.verdict == "pathological"

    def test_fair_rates_are_clean(self):
        monitor = H.HealthMonitor(
            [H.UnfairnessDriftDetector(window=5e-3)])
        rates = [(5.0, 5.0)] * self.times.size
        assert feed(monitor, self.times, rates=rates) == []

    def test_slow_drift_warns(self):
        # Jain decays from 1.0 to ~0.917 -- above critical, but a
        # clear downward trend.
        split = np.linspace(0.0, 1.5, self.times.size)
        rates = [(5.0 + s, 5.0 - s) for s in split]
        monitor = H.HealthMonitor(
            [H.UnfairnessDriftDetector(window=2e-3)])
        findings = feed(monitor, self.times, rates=rates)
        assert [f.kind for f in findings] == ["fairness_drift"]
        assert findings[0].severity == "warning"

    def test_all_zero_rates_skipped(self):
        monitor = H.HealthMonitor(
            [H.UnfairnessDriftDetector(window=5e-3)])
        rates = [(0.0, 0.0)] * self.times.size
        assert feed(monitor, self.times, rates=rates) == []


class TestPauseStormDetector:
    def test_storm_fires_on_high_pause_rate(self):
        times = np.arange(0.0, 0.01, 1e-4)
        pauses = np.arange(times.size) * 2.0  # 20k PAUSE/s
        monitor = H.HealthMonitor(
            [H.PauseStormDetector(window=2e-3)])
        findings = feed(monitor, times, pfc_pauses=pauses)
        assert [f.kind for f in findings] == ["pause_storm"]
        assert findings[0].severity == "warning"

    def test_quiet_fabric_is_clean(self):
        times = np.arange(0.0, 0.01, 1e-4)
        pauses = np.zeros(times.size)
        monitor = H.HealthMonitor(
            [H.PauseStormDetector(window=2e-3)])
        assert feed(monitor, times, pfc_pauses=pauses) == []

    def test_sustained_pause_is_critical(self):
        times = np.arange(0.0, 0.01, 1e-3)
        monitor = H.HealthMonitor(
            [H.PauseStormDetector(window=5e-3,
                                  sustained_pause_s=2e-3)])
        findings = feed(monitor, times,
                        pfc_pauses=np.ones(times.size),
                        pfc_longest_pause_s=times)  # grows past 2ms
        kinds = {f.kind: f.severity for f in findings}
        assert kinds["sustained_pause"] == "critical"
        assert monitor.verdict == "pathological"


class TestStalledConvergenceDetector:
    times = np.arange(0.0, 0.02, 1e-4)

    def test_still_moving_rates_warn(self):
        rates = [(r, r) for r in np.linspace(1.0, 10.0,
                                             self.times.size)]
        monitor = H.HealthMonitor(
            [H.StalledConvergenceDetector(window=5e-3)])
        findings = feed(monitor, self.times, rates=rates)
        assert [f.kind for f in findings] == ["not_settled"]

    def test_settled_rates_are_clean(self):
        rates = [(5.0, 5.0)] * self.times.size
        monitor = H.HealthMonitor(
            [H.StalledConvergenceDetector(window=5e-3)])
        assert feed(monitor, self.times, rates=rates) == []


class TestHealthMonitor:
    def test_dedupes_per_detector_kind(self):
        class Always(H.Detector):
            name = "always"

            def sample(self, t, signals):
                return [self._finding("same", "warning", "again")]

        monitor = H.HealthMonitor([Always()])
        for t in (0.0, 1.0, 2.0):
            monitor.sample(t)
        assert len(monitor.findings) == 1

    def test_context_is_stamped(self):
        monitor = H.HealthMonitor(
            [H.UnfairnessDriftDetector(window=1e-3)],
            context="N=10")
        times = np.arange(0.0, 0.01, 1e-4)
        findings = feed(monitor, times,
                        rates=[(9.0, 1.0)] * times.size)
        assert findings[0].context == "N=10"

    def test_finalize_is_idempotent(self):
        monitor = H.HealthMonitor(
            [H.UnfairnessDriftDetector(window=1e-3)])
        times = np.arange(0.0, 0.01, 1e-4)
        feed(monitor, times, rates=[(9.0, 1.0)] * times.size)
        count = len(monitor.findings)
        assert len(monitor.finalize()) == count

    def test_forwards_to_session_immediately(self):
        session = H.HealthSession()
        monitor = H.HealthMonitor(
            [H.PauseStormDetector(window=1e-3)], session=session)
        monitor.sample(0.0, pfc_pauses=0.0)
        monitor.sample(1e-4, pfc_pauses=100.0)
        assert len(session.findings) == 1  # before finalize()

    def test_observe_state_maps_vector(self):
        seen = {}

        class Probe(H.Detector):
            name = "probe"

            def sample(self, t, signals):
                seen.update(signals)
                return None

        monitor = H.HealthMonitor([Probe()])
        observer = monitor.observe_state(queue_index=0,
                                         rate_slice=slice(1, 3))
        observer(0.5, np.array([7.0, 1.0, 2.0, 9.0]))
        assert seen["queue"] == 7.0
        assert list(seen["rates"]) == [1.0, 2.0]


class TestSessionAndVerdict:
    def test_verdict_ladder(self):
        warn = H.HealthFinding("d", "k", "warning", "m")
        crit = H.HealthFinding("d", "k2", "critical", "m")
        assert H.verdict_for([]) == "clean"
        assert H.verdict_for([warn]) == "warning"
        assert H.verdict_for([warn, crit]) == "pathological"

    def test_use_session_scopes_and_restores(self):
        assert H.current_session() is None
        session = H.HealthSession()
        with H.use_session(session):
            assert H.current_session() is session
        assert H.current_session() is None

    def test_session_counts_metrics(self):
        from repro.obs.metrics import MetricsRegistry
        registry = MetricsRegistry()
        session = H.HealthSession(registry=registry)
        session.add(H.HealthFinding("d", "k", "critical", "m"))
        snapshot = registry.snapshot()
        assert snapshot["obs.health.findings_total"]["value"] == 1
        assert snapshot[
            "obs.health.findings_critical_total"]["value"] == 1

    def test_telemetry_installs_session_and_emits_verdict(
            self, tmp_path):
        telemetry = Telemetry(tmp_path, experiment="demo")
        with telemetry.activate():
            session = H.current_session()
            assert session is telemetry.health
            session.add(H.HealthFinding(
                "queue_oscillation", "limit_cycle", "critical",
                "synthetic"))
        assert H.current_session() is None
        assert telemetry.verdict == "pathological"
        events = read_events(telemetry.runlog_path)
        assert validate_events(events) == []
        health = [e for e in events if e["type"] == "health"]
        assert health[0]["detector"] == "queue_oscillation"
        assert health[-1]["detector"] == "health.verdict"
        assert health[-1]["verdict"] == "pathological"

    def test_clean_run_gets_clean_verdict_event(self, tmp_path):
        telemetry = Telemetry(tmp_path, experiment="demo")
        with telemetry.activate():
            pass
        events = read_events(telemetry.runlog_path)
        verdicts = [e for e in events if e["type"] == "health"]
        assert len(verdicts) == 1
        assert verdicts[0]["verdict"] == "clean"
        assert telemetry.verdict == "clean"


class TestZeroCostWiring:
    def test_attach_packet_health_is_noop_without_session(self):
        from repro.sim.topology import single_switch
        net = single_switch(2)
        before = net.sim.pending_events
        assert H.attach_packet_health(
            net, [H.PauseStormDetector(window=1e-3)],
            interval=1e-5) is None
        assert net.sim.pending_events == before

    def test_attach_packet_health_samples_with_session(self):
        from repro.core.params import DCQCNParams
        from repro.sim.topology import install_flow, single_switch
        params = DCQCNParams.paper_default(capacity_gbps=40.0,
                                           num_flows=2)
        session = H.HealthSession()
        with H.use_session(session):
            net = single_switch(2)
            for i in range(2):
                install_flow(net, "dcqcn", f"s{i}", "recv", None,
                             0.0, params)
            monitor = H.attach_packet_health(
                net, [H.StalledConvergenceDetector(window=1e-4)],
                interval=1e-5)
            assert monitor is not None
            net.sim.run(until=1e-3)
            monitor.finalize()
        assert monitor._samples > 50


class TestSeededPathologyTraces:
    """The acceptance traces: fire on the paper's pathologies,
    stay clean on the patched control -- deterministically."""

    def _verdict_of(self, fn):
        session = H.HealthSession()
        with H.use_session(session):
            fn()
        return session

    def test_fig05_instability_fires_oscillation(self):
        from repro.experiments import fig05_dcqcn_sim_instability
        session = self._verdict_of(
            lambda: fig05_dcqcn_sim_instability.run(
                extra_delays_us=(85.0,), duration=0.04))
        assert session.verdict() == "pathological"
        assert any(f.detector == "queue_oscillation"
                   and f.kind == "limit_cycle"
                   for f in session.findings)

    def test_fig09_asymmetric_start_fires_unfairness(self):
        from repro.experiments import fig09_timely_unfairness
        scenario = fig09_timely_unfairness.PAPER_SCENARIOS[2]
        session = self._verdict_of(
            lambda: fig09_timely_unfairness.run(
                scenarios=(scenario,), duration=0.05))
        assert session.verdict() == "pathological"
        assert any(f.detector == "unfairness_drift"
                   and f.kind == "persistent_unfairness"
                   for f in session.findings)

    def test_fig12_patched_timely_stays_clean(self):
        from repro.experiments import fig12_patched_timely
        session = self._verdict_of(
            fig12_patched_timely.run_asymmetric)
        assert session.verdict() == "clean"
        assert session.findings == []

    def test_fig05_low_delay_control_stays_clean(self):
        from repro.experiments import fig05_dcqcn_sim_instability
        session = self._verdict_of(
            lambda: fig05_dcqcn_sim_instability.run(
                extra_delays_us=(0.0,), duration=0.04))
        assert session.verdict() == "clean"
