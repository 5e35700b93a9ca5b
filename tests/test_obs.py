"""The telemetry layer: metrics, spans, run logs, and the wiring.

Covers the :mod:`repro.obs` primitives themselves plus the two
system-level guarantees the package makes:

* **Correct plumbing** -- a run under ``Telemetry.activate`` produces
  a schema-valid JSONL log, a coherent metrics snapshot, and the
  Prometheus/CSV exports.
* **Zero overhead when off** -- instrumented hot paths interact with
  the registry O(1) times per run (never per event), and with no
  telemetry active the shared null registry absorbs everything.
"""

import json
import math
import warnings

import numpy as np
import pytest

from repro.obs import (NULL_REGISTRY, MetricsRegistry, NullRegistry,
                       RunLog, SpanRecorder, Telemetry, current,
                       format_span_tree, get_registry, read_events,
                       sanitize, scrape_network, use_registry,
                       validate_file)
from repro.obs import spans as spans_module
from repro.obs.export import to_csv, to_prometheus, write_exports
from repro.obs.metrics import (Counter, Gauge, Histogram, P2Quantile,
                               top_metrics)
from repro.obs.runlog import validate_events


class TestP2Quantile:
    def test_exact_below_five_samples(self):
        est = P2Quantile(0.5)
        for x in (3.0, 1.0, 2.0):
            est.observe(x)
        assert est.value() == pytest.approx(2.0)

    def test_empty_is_nan(self):
        assert math.isnan(P2Quantile(0.9).value())

    def test_tracks_large_streams(self):
        rng = np.random.default_rng(7)
        samples = rng.normal(100.0, 15.0, size=20_000)
        est = P2Quantile(0.9)
        for x in samples:
            est.observe(float(x))
        exact = float(np.quantile(samples, 0.9))
        assert est.value() == pytest.approx(exact, rel=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)


class TestInstruments:
    def test_counter_only_goes_up(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_inc_dec(self):
        gauge = Gauge("g")
        assert math.isnan(gauge.value)
        gauge.inc()     # first touch treats NaN as zero
        gauge.inc(4)
        gauge.dec(2)
        assert gauge.value == 3.0
        gauge.set(-7)
        assert gauge.value == -7.0

    def test_histogram_snapshot(self):
        hist = Histogram("h")
        for x in range(1, 101):
            hist.observe(float(x))
        snap = hist.snapshot()
        assert snap["count"] == 100
        assert snap["sum"] == pytest.approx(5050.0)
        assert snap["min"] == 1.0 and snap["max"] == 100.0
        assert snap["quantiles"]["0.5"] == pytest.approx(50.5, rel=0.1)
        assert set(snap["quantiles"]) == {"0.5", "0.9", "0.99"}

    def test_empty_histogram_snapshot_uses_none(self):
        snap = Histogram("h").snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None and snap["max"] is None
        assert all(v is None for v in snap["quantiles"].values())


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("sim.port.sw->recv.bytes")

    def test_sanitize_maps_onto_alphabet(self):
        assert sanitize("sw->recv") == "sw_recv"
        assert sanitize("  ") == "unnamed"
        registry = MetricsRegistry()
        registry.counter(f"sim.port.{sanitize('sw->recv')}.bytes")

    def test_snapshot_is_sorted_and_json_ready(self):
        registry = MetricsRegistry()
        registry.counter("z").inc()
        registry.gauge("a").set(1.5)
        registry.histogram("m").observe(2.0)
        snap = registry.snapshot()
        assert list(snap) == ["a", "m", "z"]
        json.dumps(snap)  # must serialize without a default=

    def test_top_metrics_orders_by_magnitude(self):
        registry = MetricsRegistry()
        registry.counter("small").inc(1)
        registry.counter("big").inc(1000)
        registry.gauge("negative").set(-500)
        ranked = [name for name, _ in
                  top_metrics(registry.snapshot())]
        assert ranked == ["big", "negative", "small"]

    def test_null_registry_is_default_and_inert(self):
        assert get_registry() is NULL_REGISTRY
        null = NullRegistry()
        instrument = null.counter("anything.goes")
        instrument.inc(5)
        instrument.observe(1.0)
        instrument.set(2.0)
        assert len(null) == 0
        assert null.snapshot() == {}

    def test_use_registry_restores_previous(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            assert get_registry() is registry
            get_registry().counter("inside").inc()
        assert get_registry() is NULL_REGISTRY
        assert "inside" in registry


class TestSpans:
    def test_nesting_builds_paths_and_depths(self):
        recorder = SpanRecorder()
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
        by_name = {r.name: r for r in recorder.records}
        assert by_name["inner"].path == "outer/inner"
        assert by_name["inner"].depth == 1
        assert by_name["outer"].depth == 0
        # Children complete first but never outlast the parent.
        assert by_name["inner"].wall_s <= by_name["outer"].wall_s

    def test_module_span_is_noop_without_recorder(self):
        assert spans_module.get_recorder() is None
        with spans_module.span("ignored") as record:
            assert record is None

    def test_module_span_uses_active_recorder(self):
        recorder = SpanRecorder()
        previous = spans_module.set_recorder(recorder)
        try:
            with spans_module.span("seen"):
                pass
        finally:
            spans_module.set_recorder(previous)
        assert [r.name for r in recorder.records] == ["seen"]

    def test_format_span_tree_merges_repeats(self):
        recorder = SpanRecorder()
        with recorder.span("sweep"):
            for _ in range(3):
                with recorder.span("cell"):
                    pass
        text = format_span_tree(recorder.records)
        assert "sweep" in text
        cell_line = next(line for line in text.splitlines()
                         if "cell" in line)
        assert " 3 " in cell_line  # three calls merged to one row
        # Also accepts the dict form a run log stores.
        as_dicts = [r.as_dict() for r in recorder.records]
        assert format_span_tree(as_dicts) == text

    def test_format_span_tree_empty(self):
        assert "no spans" in format_span_tree([])


class TestRunLog:
    def test_roundtrip_and_validation(self, tmp_path):
        path = tmp_path / "run.jsonl"
        log = RunLog(path, "run-1")
        log.start("fig04", params_hash="abc", params={"n": 3}, seed=7)
        log.note("halfway")
        log.metrics({"c": {"type": "counter", "value": 1.0}})
        log.finish(status="ok")
        log.close()
        events = read_events(path)
        assert [e["type"] for e in events] == \
            ["run_start", "note", "metrics", "run_end"]
        assert events[0]["seed"] == 7
        assert validate_file(path) == []

    def test_sweep_and_retry_events_validate(self, tmp_path):
        path = tmp_path / "run.jsonl"
        log = RunLog(path, "run-1")
        log.start("fig14", params_hash="abc")
        log.sweep("cell_retry", index=3, attempt=2)
        log.retry(component="fluid.dde", t=0.004, step=4, dt=1e-3)
        log.finish(status="ok")
        log.close()
        events = read_events(path)
        assert [e["type"] for e in events] == \
            ["run_start", "sweep", "retry", "run_end"]
        assert events[1]["event"] == "cell_retry"
        assert events[2]["component"] == "fluid.dde"
        assert validate_file(path) == []

    def test_legacy_fuzz_event_still_validates(self, tmp_path):
        # No writer emits ``fuzz`` any more; a log written before the
        # fuzzer was removed must still pass the schema check.
        path = tmp_path / "old.jsonl"
        lines = [
            {"type": "run_start", "experiment": "fuzz-seed0",
             "params_hash": "abc", "version": 7},
            {"type": "fuzz", "event": "scenario_ok", "index": 0},
            {"type": "run_end", "status": "ok", "wall_s": 0.5},
        ]
        path.write_text("".join(
            json.dumps({"run_id": "old", "seq": seq, "ts": 1.0, **line})
            + "\n" for seq, line in enumerate(lines)))
        assert not hasattr(RunLog, "fuzz")
        assert validate_file(path) == []

    def test_dde_halved_step_retry_emits_retry_event(self, tmp_path):
        # A stiff model under explicit euler diverges at dt and is
        # rescued at dt/2; with telemetry active the integrator must
        # leave a breadcrumb saying where and why it retried.
        from repro.core.fluid import dde
        from repro.core.fluid.base import FluidModel

        class Stiff(FluidModel):
            def initial_state(self):
                return np.array([1.0])

            def derivatives(self, t, state, history):
                return [-3000.0 * x for x in state]

            def state_labels(self):
                return ["x"]

        telemetry = Telemetry(tmp_path, experiment="stiff")
        with telemetry.activate():
            dde.integrate(Stiff(), t_end=0.05, dt=1e-3,
                          method="euler", max_retries=1)
        events = read_events(telemetry.runlog_path)
        retries = [e for e in events if e["type"] == "retry"]
        assert len(retries) == 1
        event = retries[0]
        assert event["component"] == "fluid.dde"
        assert event["dt"] == pytest.approx(1e-3)
        assert event["next_dt"] == pytest.approx(5e-4)
        assert event["step"] > 0
        assert event["t"] == pytest.approx(event["step"] * 1e-3,
                                           rel=1e-6)
        assert event["cause"]  # why the attempt died, human-readable
        assert validate_file(telemetry.runlog_path) == []

    def test_first_event_must_be_run_start(self, tmp_path):
        log = RunLog(tmp_path / "run.jsonl", "run-1")
        with pytest.raises(ValueError):
            log.note("too early")
        log.close()

    def test_unknown_type_and_missing_fields_rejected(self, tmp_path):
        log = RunLog(tmp_path / "run.jsonl", "run-1")
        log.start("x", params_hash="h")
        with pytest.raises(ValueError):
            log.emit("bogus_type")
        with pytest.raises(ValueError):
            log.emit("run_end")  # missing status/wall_s
        log.close()

    def test_close_marks_unfinished_run_abandoned(self, tmp_path):
        path = tmp_path / "run.jsonl"
        log = RunLog(path, "run-1")
        log.start("x", params_hash="h")
        log.close()
        events = read_events(path)
        assert events[-1]["type"] == "run_end"
        assert events[-1]["status"] == "abandoned"

    def test_validator_catches_truncation_and_bad_seq(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLog(path, "run-1") as log:
            log.start("x", params_hash="h")
            log.note("still running")
        events = read_events(path)[:-1]  # drop run_end: truncated
        errors = validate_events(events)
        assert any("run_end" in e for e in errors)
        events[1]["seq"] = 99
        assert any("seq" in e for e in validate_events(events))

    def test_validator_rejects_empty(self):
        assert validate_events([]) != []

    def test_health_event_roundtrip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLog(path, "run-1") as log:
            log.start("fig05", params_hash="h")
            log.health("queue_oscillation", "critical",
                       "limit cycle", kind="limit_cycle",
                       sim_time_s=0.02)
        events = read_events(path)
        assert validate_events(events) == []
        health = events[1]
        assert health["type"] == "health"
        assert health["detector"] == "queue_oscillation"
        assert health["severity"] == "critical"

    def test_truncated_final_line_dropped_by_default(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLog(path, "run-1") as log:
            log.start("x", params_hash="h")
            log.note("complete")
            log.finish()
        # simulate a writer killed mid-line
        with open(path, "a") as stream:
            stream.write('{"run_id": "run-1", "seq": 3, "ty')
        events = read_events(path)
        assert [e["type"] for e in events] == \
            ["run_start", "note", "run_end"]
        with pytest.raises(json.JSONDecodeError):
            read_events(path, strict=True)

    def test_malformed_midfile_line_always_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"ok": 1}\nnot json at all\n{"ok": 2}\n')
        with pytest.raises(json.JSONDecodeError):
            read_events(path)

    def test_fsync_mode_writes_identical_events(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLog(path, "run-1", fsync=True) as log:
            log.start("x", params_hash="h")
            log.note("durable")
            log.finish()
        events = read_events(path)
        assert validate_events(events) == []
        assert [e["type"] for e in events] == \
            ["run_start", "note", "run_end"]


class TestExporters:
    def snapshot(self):
        registry = MetricsRegistry()
        registry.counter("sim.engine.events_total").inc(42)
        registry.gauge("perf.sweep.workers").set(4)
        hist = registry.histogram("perf.sweep.cell_seconds")
        hist.observe(0.5)
        hist.observe(1.5)
        return registry.snapshot()

    def test_prometheus_format(self):
        text = to_prometheus(self.snapshot())
        assert "# TYPE sim_engine_events_total counter" in text
        assert "sim_engine_events_total 42.0" in text
        assert "perf_sweep_workers 4.0" in text
        assert 'perf_sweep_cell_seconds{quantile="0.5"}' in text
        assert "perf_sweep_cell_seconds_count 2" in text
        assert "perf_sweep_cell_seconds_sum 2.0" in text

    def test_csv_format(self):
        rows = to_csv(self.snapshot()).splitlines()
        assert rows[0] == "metric,type,field,value"
        assert "sim.engine.events_total,counter,value,42.0" in rows

    def test_write_exports(self, tmp_path):
        paths = write_exports(self.snapshot(), tmp_path / "run-1")
        assert sorted(p.suffix for p in paths) == [".csv", ".prom"]
        for path in paths:
            assert path.exists() and path.stat().st_size > 0


class TestTelemetryBundle:
    def test_activate_produces_valid_artifacts(self, tmp_path):
        telemetry = Telemetry(tmp_path, experiment="demo",
                              run_id="demo-1")
        with telemetry.activate(params={"n": 2}, seed=5):
            assert current() is telemetry
            assert get_registry() is telemetry.registry
            get_registry().counter("demo.widgets_total").inc(3)
            with spans_module.span("work"):
                pass
        assert current() is None
        assert get_registry() is NULL_REGISTRY
        assert validate_file(telemetry.runlog_path) == []
        events = read_events(telemetry.runlog_path)
        assert events[0]["experiment"] == "demo"
        assert events[0]["seed"] == 5
        assert events[-1]["status"] == "ok"
        snapshot = [e for e in events if e["type"] == "metrics"][-1]
        assert snapshot["snapshot"]["demo.widgets_total"]["value"] == 3
        span_paths = [e["path"] for e in events
                      if e["type"] == "span"]
        assert "experiment:demo/work" in span_paths
        assert len(telemetry.export_paths) == 2

    def test_error_still_finalizes(self, tmp_path):
        telemetry = Telemetry(tmp_path, experiment="boom",
                              run_id="boom-1")
        with pytest.raises(RuntimeError):
            with telemetry.activate():
                raise RuntimeError("kaboom")
        assert validate_file(telemetry.runlog_path) == []
        events = read_events(telemetry.runlog_path)
        assert events[-1]["status"] == "error"
        assert "kaboom" in events[-1]["error"]
        assert get_registry() is NULL_REGISTRY

    def test_warnings_captured_and_hook_restored(self, tmp_path):
        before = warnings.showwarning
        telemetry = Telemetry(tmp_path, experiment="warn",
                              run_id="warn-1")
        with telemetry.activate():
            with warnings.catch_warnings():
                warnings.simplefilter("always")
                warnings.warn("measure twice", RuntimeWarning)
        assert warnings.showwarning is before
        messages = [e["message"] for e in
                    read_events(telemetry.runlog_path)
                    if e["type"] == "warning"]
        assert any("measure twice" in m for m in messages)

    def test_ensure_coerces_paths(self, tmp_path):
        telemetry = Telemetry.ensure(str(tmp_path), experiment="e")
        assert isinstance(telemetry, Telemetry)
        assert telemetry.experiment == "e"
        assert Telemetry.ensure(telemetry, experiment="x") is telemetry


class TestExperimentWiring:
    def test_registry_run_accepts_telemetry(self, tmp_path):
        from repro.experiments.registry import Experiment
        exp = Experiment("tele_test", "wiring test",
                         lambda n=2: n * 21, str)
        assert exp.run(telemetry=tmp_path, n=2) == 42
        logs = list(tmp_path.glob("tele_test-*.jsonl"))
        assert len(logs) == 1
        assert validate_file(logs[0]) == []
        events = read_events(logs[0])
        assert events[0]["params"] == {"n": 2}

    def test_telemetry_none_is_passthrough(self):
        from repro.experiments.registry import Experiment
        exp = Experiment("tele_off", "off test", lambda: 7, str)
        assert exp.run(telemetry=None) == 7
        assert get_registry() is NULL_REGISTRY


class TestScrape:
    def test_scrape_network_publishes_port_metrics(self):
        from repro.core.params import DCQCNParams
        from repro.sim.red import REDMarker
        from repro.sim.topology import install_flow, single_switch
        params = DCQCNParams.paper_default(capacity_gbps=10,
                                           num_flows=2)
        marker = REDMarker(params.red, params.mtu_bytes, seed=3)
        net = single_switch(2, link_gbps=10, marker=marker)
        for i in range(2):
            install_flow(net, "dcqcn", f"s{i}", "recv", None, 0.0,
                         params)
        net.sim.run(until=2e-3)
        registry = MetricsRegistry()
        ports = scrape_network(registry=registry, network=net)
        assert ports > 0
        names = registry.names()
        assert any(n.endswith(".bytes_total") for n in names)
        assert any(n.endswith(".ecn_marked_total") for n in names)
        assert any(".queue." in n for n in names)
        total = sum(registry.get(n).value for n in names
                    if n.endswith(".packets_total"))
        assert total > 0


class _SpyRegistry(MetricsRegistry):
    """Counts instrument lookups so tests can bound them."""

    def __init__(self):
        super().__init__()
        self.lookups = 0

    def _get_or_create(self, name, factory, kind):
        self.lookups += 1
        return super()._get_or_create(name, factory, kind)


class TestZeroOverheadGuard:
    def _spin(self, n_events):
        from repro.sim.engine import Simulator
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < n_events:
                sim.schedule(1e-6, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return count[0]

    def test_engine_registry_traffic_is_constant(self):
        # The aggregation-point rule, enforced: registry interactions
        # during a run must not scale with the event count.
        spy_small, spy_large = _SpyRegistry(), _SpyRegistry()
        with use_registry(spy_small):
            assert self._spin(100) == 100
        with use_registry(spy_large):
            assert self._spin(10_000) == 10_000
        assert spy_large.lookups == spy_small.lookups
        assert spy_large.lookups <= 8

    def test_off_by_default_records_nothing(self):
        assert get_registry() is NULL_REGISTRY
        self._spin(1000)
        assert len(NULL_REGISTRY) == 0

    def test_dde_registry_traffic_is_constant(self):
        from repro.core.fluid import dde
        from repro.core.fluid.dcqcn import DCQCNFluidModel
        from repro.core.params import DCQCNParams
        model = DCQCNFluidModel(DCQCNParams.paper_default(num_flows=2))
        spy_short, spy_long = _SpyRegistry(), _SpyRegistry()
        with use_registry(spy_short):
            dde.integrate(model, t_end=1e-4, dt=1e-6)
        with use_registry(spy_long):
            dde.integrate(model, t_end=1e-3, dt=1e-6)
        assert spy_long.lookups == spy_short.lookups
        counted = spy_long.counter("fluid.dde.steps_total").value
        assert counted == pytest.approx(1000)


class TestSweepTelemetry:
    def test_sweep_publishes_cell_metrics(self):
        from repro.perf.sweep import SweepRunner
        registry = MetricsRegistry()
        with use_registry(registry):
            results = SweepRunner().map(
                _square, [{"x": i} for i in range(5)])
        assert results == [0, 1, 4, 9, 16]
        assert registry.counter("perf.sweep.cells_total").value == 5
        hist = registry.get("perf.sweep.cell_seconds")
        assert hist.count == 5

    def test_cache_publishes_hit_miss_counters(self, tmp_path,
                                               monkeypatch):
        from repro.perf.cache import ResultCache
        monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "pinned")
        cache = ResultCache(root=tmp_path)
        registry = MetricsRegistry()
        with use_registry(registry):
            cache.get_or_run("exp", {"a": 1}, lambda: 11)
            cache.get_or_run("exp", {"a": 1}, lambda: 11)
        assert registry.counter("perf.cache.misses_total").value == 1
        assert registry.counter("perf.cache.hits_total").value == 1
        assert registry.counter("perf.cache.puts_total").value == 1


def _square(x):
    return x * x


class TestReportRendering:
    def test_render_events_shows_spans_and_metrics(self, tmp_path):
        from repro.obs.report import render_report
        telemetry = Telemetry(tmp_path, experiment="rep",
                              run_id="rep-1")
        with telemetry.activate(params={"k": 1}):
            get_registry().counter("rep.things_total").inc(9)
            with spans_module.span("phase"):
                pass
        text = render_report(telemetry.runlog_path)
        assert "rep-1" in text
        assert "experiment:rep" in text
        assert "phase" in text
        assert "rep.things_total" in text
        assert "status" in text
