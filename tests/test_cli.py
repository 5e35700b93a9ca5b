"""The ``python -m repro`` command-line interface."""

import os
import time

import pytest

from repro.__main__ import build_parser, main
from repro.experiments.registry import EXPERIMENTS, Experiment
from repro.perf import SweepRunner


def poison_cell(x):
    if x == 3:
        raise ValueError(f"poison {x}")
    return x


def poison_sweep(cache=None, resilience=None):
    """A one-sweep experiment whose cell x == 3 raises."""
    return SweepRunner(cache=cache, experiment_id="fake",
                       resilience=resilience).map(
        poison_cell, [{"x": x} for x in (1, 3)])


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_collects_names(self):
        args = build_parser().parse_args(["run", "fig04", "fig20"])
        assert args.experiments == ["fig04", "fig20"]

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("flags", [["--resume"],
                                       ["--cell-retries", "1"]],
                             ids=["resume", "cell-retries"])
    def test_removed_resilience_flags_rejected(self, flags, capsys):
        # The result cache resumes sweeps and failed cells are not
        # retried, so neither flag exists any more.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["run", "fig14", *flags])
        assert exit_info.value.code == 2


class TestMain:
    def test_list_prints_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in EXPERIMENTS:
            assert key in out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "fig99" in err

    def test_run_executes_driver(self, capsys, monkeypatch):
        # Substitute a trivial experiment to keep the test instant.
        from repro.experiments.registry import Experiment
        fake = Experiment("fake", "a fake experiment",
                          lambda: [1, 2, 3],
                          lambda rows: f"rows={rows}")
        monkeypatch.setitem(EXPERIMENTS, "fake", fake)
        assert main(["run", "fake"]) == 0
        out = capsys.readouterr().out
        assert "rows=[1, 2, 3]" in out
        assert "fake: a fake experiment" in out

    def test_run_all_expands(self, capsys, monkeypatch):
        from repro.experiments.registry import Experiment
        calls = []

        def record(name):
            def runner():
                calls.append(name)
                return name
            return runner

        monkeypatch.setattr(
            "repro.__main__.EXPERIMENTS",
            {"a": Experiment("a", "first", record("a"), str),
             "b": Experiment("b", "second", record("b"), str)})
        assert main(["run", "all"]) == 0
        assert calls == ["a", "b"]

    def test_csv_creates_missing_directory(self, tmp_path, capsys,
                                           monkeypatch):
        import dataclasses

        from repro.experiments.registry import Experiment

        @dataclasses.dataclass
        class Row:
            x: int

        fake = Experiment("fake", "a fake experiment",
                          lambda: [Row(x=1)], str)
        monkeypatch.setitem(EXPERIMENTS, "fake", fake)
        target = tmp_path / "deep" / "nested"
        assert main(["run", "fake", "--csv", str(target)]) == 0
        assert (target / "fake.csv").exists()

    def test_telemetry_flag_writes_artifacts(self, tmp_path, capsys,
                                             monkeypatch):
        from repro.experiments.registry import Experiment
        fake = Experiment("fake", "a fake experiment",
                          lambda: [1, 2], str)
        monkeypatch.setitem(EXPERIMENTS, "fake", fake)
        obs_dir = tmp_path / "obs"
        assert main(["run", "fake", "--telemetry",
                     str(obs_dir)]) == 0
        out = capsys.readouterr().out
        assert "run log:" in out
        logs = list(obs_dir.glob("fake-*.jsonl"))
        assert len(logs) == 1
        from repro.obs import validate_file
        assert validate_file(logs[0]) == []
        assert list(obs_dir.glob("fake-*.prom"))
        assert list(obs_dir.glob("fake-*.metrics.csv"))

    def test_cache_stats_printed_per_experiment(self, tmp_path,
                                                capsys, monkeypatch):
        from repro.experiments.registry import Experiment
        fake = Experiment("fake", "a fake experiment",
                          lambda: [1], str)
        monkeypatch.setitem(EXPERIMENTS, "fake", fake)
        assert main(["run", "fake", "--cache-dir",
                     str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "fake cache:" in out
        assert "hit rate" in out


class TestResilienceFlags:
    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    def test_bad_cell_timeout_is_a_usage_error(self, value, capsys):
        assert main(["run", "fig03", "--cell-timeout", value]) == 2
        err = capsys.readouterr().err
        assert "--cell-timeout must be a positive" in err
        assert len(err.strip().splitlines()) == 1

    def test_capsules_follow_cache_dir(self, tmp_path, capsys,
                                       monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "fake", Experiment(
            "fake", "a sweep with a poison cell", poison_sweep, str))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        cache_dir = tmp_path / "cache"
        with pytest.warns(RuntimeWarning, match="not enforced"):
            code = main(["run", "fake", "--cache-dir", str(cache_dir),
                         "--cell-timeout", "30"])
        assert code == 1  # a quarantined cell fails the run
        capsules = list((cache_dir / "capsules").glob("*.capsule.json"))
        assert len(capsules) == 1
        assert not (tmp_path / "env").exists()
        assert f"replay: python -m repro replay {capsules[0]}" \
            in capsys.readouterr().out

    def test_orphaned_cache_tmp_files_reaped(self, tmp_path, capsys,
                                             monkeypatch):
        # A writer SIGKILLed mid-put leaks its temp file; opening the
        # cache removes ones old enough that no live writer owns them.
        monkeypatch.setitem(EXPERIMENTS, "fake", Experiment(
            "fake", "a fake experiment", lambda: [1], str))
        cache_dir = tmp_path / "cache"
        (cache_dir / "fct_study").mkdir(parents=True)
        orphan = cache_dir / "fct_study" / "tmpdead.tmp"
        orphan.write_bytes(b"half an entry")
        two_hours_ago = time.time() - 7200
        os.utime(orphan, (two_hours_ago, two_hours_ago))
        live = cache_dir / "fct_study" / "tmplive.tmp"
        live.write_bytes(b"a concurrent writer owns this")
        assert main(["run", "fake", "--cache-dir", str(cache_dir)]) == 0
        assert not orphan.exists()
        assert live.exists()


class TestReportCommand:
    def _write_log(self, directory):
        from repro.obs import Telemetry
        telemetry = Telemetry(directory, experiment="demo",
                              run_id="demo-1")
        with telemetry.activate(params={"n": 1}):
            pass
        return telemetry.runlog_path

    def test_report_renders_dashboard(self, tmp_path, capsys):
        path = self._write_log(tmp_path)
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "demo-1" in out
        assert "status" in out

    def test_validate_only(self, tmp_path, capsys):
        path = self._write_log(tmp_path)
        assert main(["report", str(path), "--validate-only"]) == 0
        assert "valid run log" in capsys.readouterr().out

    def test_invalid_log_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"not": "a run log"}\n')
        assert main(["report", str(bad)]) == 1
        assert "schema violation" in capsys.readouterr().err

    def test_report_accepts_directory(self, tmp_path, capsys):
        from repro.obs import Telemetry
        for run_id in ("demo-1", "demo-2"):
            telemetry = Telemetry(tmp_path, experiment="demo",
                                  run_id=run_id)
            with telemetry.activate():
                pass
        assert main(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "demo-1" in out and "demo-2" in out

    def test_report_directory_fails_on_any_invalid_log(
            self, tmp_path, capsys):
        self._write_log(tmp_path)
        (tmp_path / "bad.jsonl").write_text('{"not": "a run log"}\n')
        assert main(["report", str(tmp_path),
                     "--validate-only"]) == 1
        captured = capsys.readouterr()
        assert "schema violation" in captured.err
        assert "valid run log" in captured.out  # the good one

    def test_report_empty_directory_is_an_error(self, tmp_path,
                                                capsys):
        assert main(["report", str(tmp_path)]) == 2
        assert "no run logs" in capsys.readouterr().err


class TestWatchCommand:
    def test_watch_once_renders_dashboard(self, tmp_path, capsys):
        from repro.obs import Telemetry
        telemetry = Telemetry(tmp_path, experiment="demo",
                              run_id="demo-1")
        with telemetry.activate():
            pass
        assert main(["watch", str(tmp_path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro watch :: demo" in out
        assert "final verdict: clean" in out

    def test_watch_missing_target_fails(self, tmp_path, capsys):
        assert main(["watch", str(tmp_path / "absent_dir")]) == 2
        assert "no such" in capsys.readouterr().err


class TestCompareCommand:
    @pytest.fixture
    def run_dir(self, write_log):
        def write(directory, rate):
            return str(write_log(directory,
                                 {"sim.engine.events_per_sec": rate}))
        return write

    def test_compare_clean_exits_zero(self, tmp_path, capsys, run_dir):
        assert main(["compare", run_dir(tmp_path / "a", 1000.0),
                     run_dir(tmp_path / "b", 1010.0),
                     "--fail-on-regression"]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_compare_gate_fails_on_regression(self, tmp_path, capsys,
                                              run_dir):
        assert main(["compare", run_dir(tmp_path / "a", 1000.0),
                     run_dir(tmp_path / "b", 100.0),
                     "--fail-on-regression"]) == 1
        assert "REGRESSIONS" in capsys.readouterr().out

    def test_compare_without_gate_reports_but_passes(self, tmp_path,
                                                     capsys, run_dir):
        assert main(["compare", run_dir(tmp_path / "a", 1000.0),
                     run_dir(tmp_path / "b", 100.0)]) == 0

    def test_compare_file_source_fails(self, tmp_path, capsys,
                                       run_dir):
        bench = tmp_path / "BENCH_OLD.json"
        bench.write_text('{"micro": {}}')
        assert main(["compare", str(bench),
                     run_dir(tmp_path / "b", 1.0)]) == 2
        assert "telemetry directory" in capsys.readouterr().err

    def test_compare_missing_source_fails(self, tmp_path, capsys):
        assert main(["compare", str(tmp_path / "nope"),
                     str(tmp_path / "also_nope")]) == 2
        assert "no such" in capsys.readouterr().err
