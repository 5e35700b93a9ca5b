"""Tests of the end-to-end benchmark itself.

Run from the repository root with ``python3 -m pytest e2ebench``.  The
traced-run tests run every workload once under ``--trace 1`` (a few
minutes in total); the rest are quick.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import bench_workloads  # noqa: E402
import run  # noqa: E402
from layer_trace import LayerTracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "e2ebench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180)


# -- the spec and the code agree ---------------------------------------------

def test_spec_workloads_match_the_code():
    assert list(run.WORKLOADS) == list(bench_workloads.WORKLOADS)


def test_spec_respects_the_format_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] \
        + [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.match(name) for name in names)
    assert len(set(m["name"] for m in metrics)) == len(metrics)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


# -- inputs -------------------------------------------------------------------

def test_fct_inputs_are_seeded_and_at_the_typical_load():
    first = bench_workloads.WORKLOADS["fct_websearch"].prepare(5)
    assert first == bench_workloads.WORKLOADS["fct_websearch"].prepare(5)
    assert first != bench_workloads.WORKLOADS["fct_websearch"].prepare(6)
    load = bench_workloads.realized_load(first["seed"])
    assert abs(load - bench_workloads.FCT_REALIZED_LOAD) \
        <= bench_workloads.FCT_LOAD_TOLERANCE


def test_stability_grid_is_seeded_and_contains_fig03():
    prepare = bench_workloads.WORKLOADS["stability_sweep"].prepare
    grid = prepare(3)
    assert grid == prepare(3) and grid != prepare(4)
    assert len(grid["flow_counts"]) == bench_workloads.MAP_FLOW_COUNTS
    assert len(grid["delays_us"]) == bench_workloads.MAP_DELAYS
    assert set(bench_workloads.FIG03_DELAYS_US) <= set(grid["delays_us"])
    assert set(bench_workloads.fig03.DEFAULT_FLOWS) \
        <= set(grid["flow_counts"])


# -- orchestration ------------------------------------------------------------

def test_digest_mismatch_fails_the_odd_repetition():
    reps = [{"digest": "a", "failures": []},
            {"digest": "b", "failures": []},
            {"digest": "a", "failures": []},
            {"failures": ["raised"]}]
    run._mark_digests(reps)
    assert [bool(rep["failures"]) for rep in reps] \
        == [False, True, False, True]


def test_tracer_keeps_self_time_of_nested_calls(tmp_path):
    tracer = LayerTracer(tmp_path)
    inner = tracer.timed("analysis", lambda: time.sleep(0.05))

    def outer_body():
        time.sleep(0.05)
        inner()
    outer = tracer.timed("perf.sweep", outer_body)
    outer()
    calls, total, own = tracer.spans["perf.sweep"]
    assert calls == 1 and total >= 0.1
    assert own == pytest.approx(total - tracer.spans["analysis"][1])
    assert tracer.spans["analysis"][2] == tracer.spans["analysis"][1]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = _run("--workload", "fluid_dde", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert result.returncode != 0
    assert '"correct"' not in result.stdout


def test_held_out_only_where_defined():
    result = _run("--workload", "fluid_dde", "--seed", "1", "--seconds",
                  "1", "--held-out")
    assert result.returncode == 2
    assert set(bench_workloads.HELD_OUT_SEEDS) == set(run.HELD_OUT)


# -- traced runs: sanity checks and the steadiness oracle ---------------------

#: Oracle counts each workload must exercise (nonzero).
EXERCISED = {
    "fig05_observed": ("sim.events", "sim.bottleneck_pkts",
                       "obs.runlog.events"),
    "fct_websearch": ("sim.events", "sim.bottleneck_pkts",
                      "workloads.flows", "perf.sweep.cells"),
    "fluid_dde": ("fluid.steps",),
    "stability_sweep": ("perf.sweep.cells",),
}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_is_correct_and_its_counts_repeat(workload):
    result = _run("--workload", workload, "--seed", "2", "--seconds",
                  "1", "--trace", "1")
    assert result.returncode == 0, result.stderr
    line = json.loads(result.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0, result.stdout
    assert line["attempted"] == 1 + run.TRACED_REPS
    metrics = line["metrics"]
    assert {m["name"] for m in SPEC["per_layer"]} == set(metrics)
    report = json.loads((ROOT / ".bench_build" / "reports"
                         / f"{workload}-seed2-trace1.json").read_text())
    traced = [rep["layers"] for rep in report["repetitions"][1:]]
    for name in run.ORACLE:
        assert len({layers[name] for layers in traced}) == 1, name
    for name in EXERCISED[workload]:
        assert metrics[name]["value"] > 0, name
    assert "trace.overhead_s" in metrics
