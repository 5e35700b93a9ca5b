"""Watch-mode streaming (obs.live) and regression diffing (obs.diff)."""

import io
import json

import pytest

from repro.obs import health as H
from repro.obs.diff import (MetricDelta, compare, load_source,
                            metric_direction, metric_rtol,
                            render_report)
from repro.obs.live import (RunLogTailer, WatchState,
                            render_dashboard, resolve_target, watch)
from repro.obs.telemetry import Telemetry


def write_run(directory, experiment="demo", run_id=None,
              gauges=(), findings=()):
    """One complete telemetry run with the given gauges/findings."""
    telemetry = Telemetry(directory, experiment=experiment,
                          run_id=run_id)
    with telemetry.activate(params={"n": 1}):
        for name, value in gauges:
            telemetry.registry.gauge(name).set(value)
        for finding in findings:
            telemetry.health.add(finding)
    return telemetry


def poison_cell(x):
    if x == 3:
        raise ValueError(f"poison {x}")
    return x


CRITICAL = H.HealthFinding("queue_oscillation", "limit_cycle",
                           "critical", "synthetic cycle")


class TestRunLogTailer:
    def test_reads_incrementally(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"a": 1}\n')
        tailer = RunLogTailer(path)
        assert tailer.poll() == [{"a": 1}]
        assert tailer.poll() == []
        with open(path, "a") as stream:
            stream.write('{"b": 2}\n')
        assert tailer.poll() == [{"b": 2}]

    def test_partial_line_buffered_until_complete(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"a": 1}\n{"b": ')
        tailer = RunLogTailer(path)
        assert tailer.poll() == [{"a": 1}]
        with open(path, "a") as stream:
            stream.write('2}\n')
        assert tailer.poll() == [{"b": 2}]

    def test_truncated_file_resets(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"a": 1}\n{"b": 2}\n')
        tailer = RunLogTailer(path)
        assert len(tailer.poll()) == 2
        path.write_text('{"c": 3}\n')  # new, shorter run
        assert tailer.poll() == [{"c": 3}]

    def test_missing_file_is_empty_not_error(self, tmp_path):
        tailer = RunLogTailer(tmp_path / "absent.jsonl")
        assert tailer.poll() == []


class TestWatchState:
    def test_folds_run_lifecycle(self, tmp_path):
        telemetry = write_run(
            tmp_path, gauges=[("demo.q", 5.0)], findings=[CRITICAL])
        state = WatchState()
        state.apply_all(RunLogTailer(telemetry.runlog_path).poll())
        assert state.experiment == "demo"
        assert state.finished and state.status == "ok"
        assert state.verdict == "pathological"
        assert len(state.health) == 1
        assert state.metrics["demo.q"]["value"] == 5.0

    def test_dashboard_renders_key_sections(self, tmp_path):
        telemetry = write_run(
            tmp_path, gauges=[("demo.q", 5.0)], findings=[CRITICAL])
        state = WatchState()
        state.apply_all(RunLogTailer(telemetry.runlog_path).poll())
        board = render_dashboard(state)
        assert "repro watch :: demo" in board
        assert "pathological" in board
        assert "limit_cycle" in board or "queue_oscillation" in board
        assert "demo.q" in board
        assert "run finished: ok" in board

    def test_dashboard_before_any_event(self):
        board = render_dashboard(WatchState())
        assert "waiting for run_start" in board

    def test_dashboard_counts_sweep_failures(self):
        state = WatchState()
        for kind in ("cell_retry", "cell_timeout", "cell_timeout",
                     "cell_quarantined", "pool_respawn", "resume"):
            state.apply({"type": "sweep", "event": kind,
                         "experiment": "demo", "index": 1})
        board = render_dashboard(state)
        assert "sweep: 1 cell(s) quarantined, 1 retries, " \
            "2 timeout(s), 1 pool respawn(s)" in board

    def test_quiet_sweep_draws_no_sweep_line(self):
        state = WatchState()
        state.apply({"type": "sweep", "event": "resume",
                     "resumed_cells": 3})
        assert "sweep:" not in render_dashboard(state)

    def test_watch_shows_local_quarantine(self, tmp_path):
        from repro.perf import ResiliencePolicy, SweepRunner
        telemetry = Telemetry(tmp_path, experiment="demo")
        policy = ResiliencePolicy(capsule_dir=tmp_path / "capsules")
        with telemetry.activate():
            SweepRunner(experiment_id="demo", resilience=policy).map(
                poison_cell, [{"x": x} for x in (1, 3)])
        out = io.StringIO()
        watch(telemetry.runlog_path, once=True, stream=out)
        assert "sweep: 1 cell(s) quarantined, 0 retries" \
            in out.getvalue()


class TestResolveTarget:
    def test_file_passes_through(self, tmp_path):
        telemetry = write_run(tmp_path)
        assert resolve_target(telemetry.runlog_path) \
            == telemetry.runlog_path

    def test_directory_picks_newest(self, tmp_path):
        import os
        first = write_run(tmp_path, run_id="demo-1")
        second = write_run(tmp_path, run_id="demo-2")
        os.utime(first.runlog_path, (1, 1))
        assert resolve_target(tmp_path) == second.runlog_path

    def test_experiment_filter(self, tmp_path):
        write_run(tmp_path, experiment="fig04", run_id="fig04-1")
        write_run(tmp_path, experiment="fig05", run_id="fig05-1")
        assert resolve_target(tmp_path, "fig04").name \
            == "fig04-1.jsonl"

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            resolve_target(tmp_path)


class TestWatchLoop:
    def test_once_renders_and_exits(self, tmp_path):
        telemetry = write_run(tmp_path, findings=[CRITICAL])
        out = io.StringIO()
        assert watch(telemetry.runlog_path, once=True,
                     stream=out) == 0
        assert "final verdict: pathological" in out.getvalue()

    def test_follows_until_run_end(self, tmp_path):
        telemetry = write_run(tmp_path)
        out = io.StringIO()
        slept = []
        assert watch(tmp_path, stream=out,
                     sleep=slept.append, max_polls=10) == 0
        # complete log on the first poll -> loop ends without sleeping
        assert slept == []
        assert "run finished: ok" in out.getvalue()


class TestDirectionHeuristics:
    def test_throughput_is_higher_better(self):
        assert metric_direction("fig05.sim.engine.events_per_sec") == 1
        assert metric_direction("fig14.perf.cache.hits_total") == 1

    def test_timings_and_errors_are_lower_better(self):
        assert metric_direction("fig04.run.wall_s") == -1
        assert metric_direction("sim.port.p0.drops_total") == -1
        assert metric_direction("fluid.dde.divergence_aborts_total") \
            == -1

    def test_timing_noise_gets_wide_tolerance(self):
        assert metric_rtol("fig14.run.wall_s") > 0.2
        assert metric_rtol("fig14.perf.sweep.cell_seconds.mean") > 0.2
        assert metric_rtol("sim.engine.events_total") == \
            pytest.approx(0.02)

    def test_counts_and_shares_keep_tight_tolerance(self):
        # ``_s`` and ``_seconds`` inside a name are not timings: PFC
        # frame counts, sim-time totals and FCT shares are exact.
        for name in ("fig05.pfc.sw.pauses_sent_total",
                     "fig05.pfc.sw.resumes_sent_total",
                     "fig05.pfc.sw.pause_seconds_total",
                     "ext_incast_pfc.obs.forensics.paused_share.mean",
                     "ext_incast_pfc.obs.forensics.queueing_share.count"):
            assert metric_rtol(name) == pytest.approx(0.02), name

    def test_pause_frame_rise_is_a_regression(self, tmp_path,
                                              write_log):
        name = "pfc.sw.pauses_sent_total"
        report = compare(write_log(tmp_path / "a", {name: 100.0}),
                         write_log(tmp_path / "b", {name: 120.0}))
        assert [d.name for d in report.regressions] == [f"demo.{name}"]

    def test_classification(self):
        regress = MetricDelta("x.events_per_sec", 100.0, 50.0,
                              direction=1, rtol=0.25)
        assert regress.classification == "regression"
        improve = MetricDelta("x.wall_s", 10.0, 5.0,
                              direction=-1, rtol=0.25)
        assert improve.classification == "improvement"
        noise = MetricDelta("x.wall_s", 10.0, 10.5,
                            direction=-1, rtol=0.25)
        assert noise.classification == "unchanged"


class TestCompare:
    def test_file_source_rejected(self, tmp_path, write_log):
        bench = tmp_path / "BENCH_OLD.json"
        bench.write_text(json.dumps({"micro": {}}))
        with pytest.raises(NotADirectoryError,
                           match="telemetry directory"):
            compare(bench, write_log(tmp_path / "b", {}))

    def test_telemetry_dirs_diff_health_and_verdicts(self, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        write_run(dir_a, experiment="fig05")
        write_run(dir_b, experiment="fig05", findings=[CRITICAL])
        report = compare(dir_a, dir_b)
        assert report.new_findings \
            == ["fig05: queue_oscillation/limit_cycle"]
        assert report.verdict_changes \
            == ["fig05: clean -> pathological"]
        assert report.has_regressions

    def test_resolved_findings_reported(self, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        write_run(dir_a, experiment="fig05", findings=[CRITICAL])
        write_run(dir_b, experiment="fig05")
        report = compare(dir_a, dir_b)
        assert report.resolved_findings \
            == ["fig05: queue_oscillation/limit_cycle"]
        assert not report.has_regressions

    def test_latest_run_per_experiment_wins(self, tmp_path):
        import os
        stale = write_run(tmp_path / "a", experiment="fig05",
                          run_id="fig05-old", findings=[CRITICAL])
        os.utime(stale.runlog_path, (1, 1))
        write_run(tmp_path / "a", experiment="fig05",
                  run_id="fig05-new")
        metrics, findings, verdicts = load_source(tmp_path / "a")
        assert findings["fig05"] == set()
        assert verdicts["fig05"] == "clean"

    def test_rtol_override(self, tmp_path, write_log):
        name = "sim.engine.events_per_sec"
        a = write_log(tmp_path / "a", {name: 100.0})
        b = write_log(tmp_path / "b", {name: 98.0})
        loose = compare(a, b)
        assert not loose.regressions  # -2% within the noisy 25%
        tight = compare(a, b, rtol=0.01)
        assert [d.name for d in tight.regressions] == [f"demo.{name}"]

    def test_missing_source_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            compare(tmp_path / "absent", tmp_path / "alsoabsent")

    def test_render_report_mentions_everything(self, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        write_run(dir_a, experiment="fig05")
        write_run(dir_b, experiment="fig05", findings=[CRITICAL])
        text = render_report(compare(dir_a, dir_b))
        assert "NEW HEALTH FINDINGS" in text
        assert "clean -> pathological" in text
        assert "RESULT: regressions detected" in text


class TestCompareDroppedSection:
    """A metric deleted along with its code reads as removed."""

    def test_dropped_section_is_removed_not_regressed(self, tmp_path,
                                                      write_log):
        kept = {"sim.engine.events_per_sec": 1000.0}
        a = write_log(tmp_path / "a", {
            **kept, "sim.packet.pool_allocated": 600.0,
            "sim.packet.pool_reused": 40.0})
        b = write_log(tmp_path / "b", kept)
        report = compare(a, b)
        assert report.removed == ["demo.sim.packet.pool_allocated",
                                  "demo.sim.packet.pool_reused"]
        assert not report.has_regressions
        assert report.exit_code(fail_on_regression=True) == 0
