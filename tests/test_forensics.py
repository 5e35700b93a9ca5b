"""Flow forensics: FCT attribution exactness, causes, and surfaces."""

import pytest

from repro.core.params import DCQCNParams
from repro.obs.forensics import (COMPONENTS, FlowLedger,
                                 attach_flow_forensics, render_explain,
                                 render_flow, use_ledger)
from repro.obs.health import HealthFinding, HealthSession
from repro.obs.metrics import MetricsRegistry
from repro.obs.runlog import RunLog, validate_events
from repro.sim.engine import Simulator
from repro.sim.link import Link, Port
from repro.sim.packet import Packet
from repro.sim.topology import install_flow, single_switch


class StubFlow:
    """Hand-driven stand-in for :class:`repro.sim.flows.Flow`."""

    def __init__(self, flow_id, src, dst, size_bytes, start_time,
                 completion_time=None):
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.size_bytes = size_bytes
        self.start_time = start_time
        self.completion_time = completion_time

    @property
    def completed(self):
        return self.completion_time is not None


class _Sink:
    name = "sink"

    def receive(self, packet, ingress=None):
        pass


class _Forwarder:
    """One-method device relaying arrivals onto a downstream port."""

    name = "sw"

    def __init__(self, port):
        self.port = port

    def receive(self, packet, ingress=None):
        self.port.send(packet)


class _StubHost:
    def __init__(self, name, port):
        self.name = name
        self.port = port


class _StubSwitch:
    def __init__(self, ports):
        self.ports = ports


class _StubNet:
    """The duck-typed slice of Network that FlowLedger.attach reads."""

    def __init__(self, hosts, switches):
        self.hosts = hosts
        self.switches = switches


class TestHandOracle:
    """Attribution against closed-form hand-computed scenarios."""

    def _two_hop(self):
        """1 MB/s two-hop path: hand numbers stay round milliseconds."""
        sim = Simulator()
        switch_port = Port(sim, 1e6, Link(sim, 2e-3, _Sink()),
                           name="sw-out")
        nic = Port(sim, 1e6, Link(sim, 1e-3, _Forwarder(switch_port)),
                   name="nic-s0")
        ledger = FlowLedger()
        ledger.attach(_StubNet(
            hosts={"s0": _StubHost("s0", nic)},
            switches={"sw": _StubSwitch({"out": switch_port})}))
        return sim, nic, ledger

    def test_pacing_split_and_exact_sum(self):
        # Three 1000 B packets at t = 0, 1 ms (back-to-back at line
        # rate) and 5 ms (a 4 ms gap: 1 ms covers the previous
        # packet's serialization, 3 ms is a deliberate pacing stall).
        # Last packet: NIC 5->6 ms, propagate 1 ms, switch 7->8 ms,
        # propagate 2 ms => completion at 10 ms.
        sim, nic, ledger = self._two_hop()
        flow = StubFlow(0, "s0", "sink", 3000, 0.0)
        ledger.register_flow(flow, protocol="dcqcn")
        for i, t in enumerate((0.0, 1e-3, 5e-3)):
            sim.schedule_at(t, nic.send,
                            Packet(0, 1000, "s0", "sink", kind="data",
                                   seq=i))
        sim.run()
        flow.completion_time = 10e-3
        ledger.finalize()
        (record,) = ledger.records()
        c = record.components
        assert c["serialization_s"] == pytest.approx(4e-3, rel=1e-12)
        assert c["rate_limited_s"] == pytest.approx(3e-3, rel=1e-12)
        assert c["propagation_s"] == pytest.approx(3e-3, rel=1e-12)
        assert c["queueing_s"] == pytest.approx(0.0, abs=1e-15)
        assert c["paused_s"] == 0.0
        # The components tile [start, completion] exactly.
        assert sum(c[k] for k in COMPONENTS) == \
            pytest.approx(record.fct_s, rel=1e-12)
        assert abs(c["residual_s"]) < 1e-12
        assert record.completed

    def test_pause_overlap_splits_queue_wait(self):
        # Two back-to-back packets; PFC pauses the port at 0.5 ms
        # (mid-serialization of the first) and resumes at 4 ms.  The
        # second packet's 4 ms queue wait splits into 0.5 ms genuine
        # queueing and 3.5 ms pause overlap.
        sim = Simulator()
        port = Port(sim, 1e6, Link(sim, 0.0, _Sink()), name="nic-s0")
        ledger = FlowLedger()
        ledger.attach(_StubNet(
            hosts={"s0": _StubHost("s0", port)}, switches={}))
        flow = StubFlow(0, "s0", "sink", 2000, 0.0)
        ledger.register_flow(flow)
        for i in range(2):
            port.send(Packet(0, 1000, "s0", "sink", kind="data",
                             seq=i))
        sim.schedule_at(0.5e-3, port.pause)
        sim.schedule_at(4e-3, port.resume)
        sim.run()
        flow.completion_time = 5e-3
        ledger.finalize()
        (record,) = ledger.records()
        c = record.components
        assert c["paused_s"] == pytest.approx(3.5e-3, rel=1e-12)
        assert c["queueing_s"] == pytest.approx(0.5e-3, rel=1e-12)
        assert c["serialization_s"] == pytest.approx(1e-3, rel=1e-12)
        assert abs(c["residual_s"]) < 1e-12
        pfc = [cause for cause in record.causes
               if cause["kind"] == "pfc"]
        assert len(pfc) == 1
        assert pfc[0]["port"] == "nic-s0"
        assert pfc[0]["pauses"] == 1
        assert pfc[0]["paused_s"] == pytest.approx(3.5e-3, rel=1e-12)

    def test_incomplete_flow_has_no_residual_or_fct(self):
        sim, nic, ledger = self._two_hop()
        ledger.register_flow(StubFlow(0, "s0", "sink", None, 0.0))
        nic.send(Packet(0, 1000, "s0", "sink", kind="data"))
        sim.run()
        ledger.finalize()
        (record,) = ledger.records()
        assert not record.completed
        assert record.fct_s is None
        assert record.components["residual_s"] == 0.0


class TestRealScenario:
    """End-to-end attribution on simulated congestion-control runs."""

    def _run_incast(self, config, n_senders=4, **kwargs):
        from repro.experiments import ext_incast_pfc
        ledger = FlowLedger()
        with use_ledger(ledger):
            rows = ext_incast_pfc.run(
                configs=(config,), n_senders=n_senders,
                transfer_kb=64.0, duration=0.05, **kwargs)
        ledger.finalize()
        return rows, ledger

    def test_incast_attribution_covers_95_percent(self):
        rows, ledger = self._run_incast("dcqcn+pfc")
        done = [r for r in ledger.records() if r.completed]
        assert len(done) == rows[0].completed == 4
        for record in done:
            total = sum(record.components[k] for k in COMPONENTS)
            # Exact tiling: the residual closes the sum by
            # construction...
            assert total == pytest.approx(record.fct_s, rel=1e-9)
            # ...and the acceptance bound: the *named* components
            # cover >= 95% of the FCT.
            assert abs(record.components["residual_s"]) <= \
                0.05 * record.fct_s
        # The congested incast must show its causes: ECN marks at the
        # bottleneck and rate cuts at the senders.
        causes = {cause["kind"] for record in done
                  for cause in record.causes}
        assert "ecn" in causes
        assert "rate" in causes

    def test_flow_events_validate_against_runlog_schema(self, tmp_path):
        _, ledger = self._run_incast("dcqcn+pfc")
        events = ledger.flow_events()
        assert events
        log = RunLog(tmp_path / "run.jsonl", run_id="forensics-test")
        log.start(experiment="ext_incast_pfc", params_hash="t",
                  seed=21)
        for event in events:
            log.flow(**event)
        log.finish()
        log.close()
        from repro.obs.runlog import read_events
        written = read_events(tmp_path / "run.jsonl")
        assert validate_events(written) == []
        flows = [e for e in written if e["type"] == "flow"]
        assert len(flows) == len(events)
        for event in flows:
            if event["completed"]:
                assert event["attributed_share"] >= 0.95

    def test_ledger_is_not_intrusive(self):
        # A run with the ledger attached must produce bit-identical
        # experiment results to one without -- forensics observes, it
        # never perturbs.
        from repro.experiments import ext_incast_pfc
        plain = ext_incast_pfc.run(configs=("dcqcn+pfc",), n_senders=4,
                                   transfer_kb=64.0, duration=0.05)
        traced, _ = self._run_incast("dcqcn+pfc")
        assert plain == traced

    def test_pfc_only_incast_records_pause_causes(self):
        _, ledger = self._run_incast("pfc")
        worst = ledger.worst_paused(3)
        assert worst
        assert worst[0]["paused_s"] > 0.0
        assert worst[0].get("ports")
        # worst_paused is ordered most-throttled first.
        paused = [entry["paused_s"] for entry in worst]
        assert paused == sorted(paused, reverse=True)

    def test_fig05_style_rate_limiting_dominates(self):
        # Long-lived DCQCN flows under RED marking: never complete,
        # but the ledger still records cuts and CNP feedback.
        from repro.sim.red import REDMarker
        params = DCQCNParams.paper_default(capacity_gbps=10,
                                           num_flows=4)
        marker = REDMarker(params.red, params.mtu_bytes, seed=3)
        net = single_switch(4, link_gbps=10, marker=marker)
        ledger = FlowLedger()
        with use_ledger(ledger):
            attach_flow_forensics(net, context="fig05")
            for i in range(4):
                install_flow(net, "dcqcn", f"s{i}", "recv", None, 0.0,
                             params)
            net.sim.run(until=0.01)
        ledger.finalize()
        records = ledger.records()
        assert len(records) == 4
        assert all(r.context == "fig05" for r in records)
        assert any(r.rate_cuts > 0 and r.cnps > 0 for r in records)

    def test_contexts_with_shared_names_stay_separate(self):
        # fig05 builds one net per delay point: every net has the same
        # port names and flow ids, told apart only by the context.
        from repro.sim.red import REDMarker
        params = DCQCNParams.paper_default(capacity_gbps=10,
                                           num_flows=2)
        ledger = FlowLedger()
        with use_ledger(ledger):
            for context, until in (("a", 0.002), ("b", 0.004)):
                marker = REDMarker(params.red, params.mtu_bytes, seed=3)
                net = single_switch(2, link_gbps=10, marker=marker)
                attach_flow_forensics(net, context=context)
                for i in range(2):
                    install_flow(net, "dcqcn", f"s{i}", "recv", None,
                                 0.0, params)
                net.sim.run(until=until)
        records = ledger.records()
        assert sorted((r.context, r.flow_id) for r in records) == [
            ("a", 0), ("a", 1), ("b", 0), ("b", 1)]
        for record in records:
            # Emissions are counted once per packet, at the sender's
            # NIC port only, and only from this context's run.
            sent = record.flow.bytes_sent // params.mtu_bytes
            assert record.emitted == sent > 0
            assert record.hops[f"{record.src}->sw"].packets == sent
            assert record.hops["sw->recv"].packets < sent
            assert record.rate_limited_s > 0.0
            assert record.first_emit == 0.0
            assert record.last_emit < (0.002 if record.context == "a"
                                       else 0.004)
        emitted = {(r.context, r.flow_id): r.emitted for r in records}
        assert emitted["b", 0] > emitted["a", 0]


class TestSurfaces:
    def _completed_events(self):
        from repro.experiments import ext_incast_pfc
        ledger = FlowLedger()
        with use_ledger(ledger):
            ext_incast_pfc.run(configs=("dcqcn+pfc",), n_senders=4,
                               transfer_kb=64.0, duration=0.05)
        return ledger, ledger.flow_events()

    def test_render_explain_worst(self):
        _, events = self._completed_events()
        text = render_explain(events, worst=2)
        assert "showing the 2 worst by FCT" in text
        assert "attributed:" in text
        assert "causal chain:" in text
        assert "path:" in text
        for key in COMPONENTS:
            assert key[:-2] in text

    def test_render_explain_single_flow_and_missing(self):
        _, events = self._completed_events()
        text = render_explain(events, flow_id=events[0]["flow_id"])
        assert f"flow {events[0]['flow_id']}" in text
        missing = render_explain(events, flow_id=999)
        assert "known flow ids" in missing

    def test_render_explain_empty(self):
        assert "--forensics" in render_explain([])

    def test_render_flow_marks_incomplete(self):
        event = {"flow_id": 3, "completed": False,
                 "components": {k: 0.0 for k in COMPONENTS}}
        assert "INCOMPLETE" in render_flow(event)

    def test_publish_feeds_metrics_registry(self):
        ledger, _ = self._completed_events()
        registry = MetricsRegistry()
        ledger.publish(registry)
        snapshot = registry.snapshot()
        assert snapshot["obs.forensics.flows_total"]["value"] == 4
        assert snapshot["obs.forensics.flows_completed_total"][
            "value"] == 4
        assert snapshot["obs.forensics.fct_s"]["count"] == 4
        shares = snapshot["obs.forensics.paused_share"]
        assert shares["count"] == 4
        assert 0.0 <= shares["mean"] <= 1.0

    def test_report_renders_forensics_section(self):
        from repro.obs.report import render_events
        _, events = self._completed_events()
        run_events = [{"type": "run_start", "run_id": "r",
                       "experiment": "incast"}]
        run_events += [dict(e, type="flow") for e in events]
        run_events.append({"type": "run_end", "status": "ok"})
        text = render_events(run_events)
        assert "flow forensics -- 4 completed flow(s)" in text
        assert "fct_ms" in text
        assert "queueing_share" in text

    def test_watch_state_folds_flow_events(self):
        from repro.obs.live import WatchState, render_dashboard
        _, events = self._completed_events()
        state = WatchState()
        state.apply({"type": "run_start", "run_id": "r",
                     "experiment": "incast", "ts": 0.0})
        for event in events:
            state.apply(dict(event, type="flow"))
        assert state.flows == 4
        assert state.flows_completed == 4
        fcts = [e["fct_s"] for e in state.worst_flows]
        assert fcts == sorted(fcts, reverse=True)
        board = render_dashboard(state, now=1.0)
        assert "flows: 4 attributed, 4 completed" in board

    def test_health_verdict_names_worst_flows(self, tmp_path):
        log = RunLog(tmp_path / "run.jsonl", run_id="verdict-test")
        log.start(experiment="incast", params_hash="t")
        session = HealthSession(run_log=log,
                                registry=MetricsRegistry())
        session.add(HealthFinding(
            detector="pfc_pause_storm", kind="pause_storm",
            severity="critical", message="storm"))
        session.flow_context = [{"flow_id": 7, "paused_s": 1e-3}]
        session.emit_verdict()
        log.finish()
        log.close()
        from repro.obs.runlog import read_events
        verdicts = [e for e in read_events(tmp_path / "run.jsonl")
                    if e["type"] == "health"
                    and e["detector"] == "health.verdict"]
        assert len(verdicts) == 1
        assert verdicts[0]["worst_flows"] == [
            {"flow_id": 7, "paused_s": 1e-3}]

    def test_clean_verdict_omits_worst_flows(self, tmp_path):
        log = RunLog(tmp_path / "run.jsonl", run_id="clean-test")
        log.start(experiment="incast", params_hash="t")
        session = HealthSession(run_log=log,
                                registry=MetricsRegistry())
        session.flow_context = [{"flow_id": 7, "paused_s": 1e-3}]
        session.emit_verdict()
        log.finish()
        log.close()
        from repro.obs.runlog import read_events
        (verdict,) = [e for e in read_events(tmp_path / "run.jsonl")
                      if e["type"] == "health"]
        assert verdict["verdict"] == "clean"
        assert "worst_flows" not in verdict


class _LedgerCalled(Exception):
    pass


class TestZeroCostOff:
    _RECORDING = ("attach", "register_flow", "on_enqueue",
                  "on_departure", "on_drop", "on_pause", "on_resume",
                  "on_rate_change", "on_control", "finalize")

    def _dumbbell_run(self):
        from repro.sim.red import REDMarker
        from repro.sim.topology import dumbbell
        params = DCQCNParams.paper_default(capacity_gbps=10,
                                           num_flows=4)
        marker = REDMarker(params.red, params.mtu_bytes, seed=3)
        net = dumbbell(4, link_gbps=10, marker=marker)
        attach_flow_forensics(net)
        done = []
        for i in range(4):
            install_flow(net, "dcqcn", f"s{i}", f"r{i}", 256_000, 0.0,
                         params, on_complete=done.append)
        net.sim.run(until=0.005)
        return net, done

    def test_off_run_never_calls_the_ledger(self, monkeypatch):
        # The forensics hooks sit behind ``ledger is None`` guards in
        # the port and protocol hot paths; with no ledger active not
        # one recording method may run.
        def refuse(self, *args, **kwargs):
            raise _LedgerCalled("ledger called with forensics off")

        for name in self._RECORDING:
            monkeypatch.setattr(FlowLedger, name, refuse)
        net, done = self._dumbbell_run()
        assert len(done) == 4
        assert net.bottleneck_port.packets_transmitted > 0
        # The patch bites as soon as a ledger is active.
        with use_ledger(FlowLedger()), pytest.raises(_LedgerCalled):
            self._dumbbell_run()

    def test_ports_carry_no_ledger_by_default(self):
        net = single_switch(2, link_gbps=10)
        assert attach_flow_forensics(net) is None
        assert net.bottleneck_port.ledger is None
        for host in net.hosts.values():
            assert host.port.ledger is None

    def test_packets_unstamped_without_ledger(self):
        sim = Simulator()
        port = Port(sim, 1e9, Link(sim, 0.0, _Sink()))
        packet = Packet(0, 1024, "s", "sink", kind="data")
        port.send(packet)
        sim.run()
        assert packet.enqueue_time is None
