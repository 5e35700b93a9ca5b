"""End-to-end benchmark: four paper workloads, timed from outside.

Run from the repository root::

    python3 e2ebench/run.py --workload fig05_observed --seed 1 \\
        --seconds 20 --trace 0

Each repetition runs in a fresh interpreter (``rep.py``), the way a
user's ``repro run`` does.  With ``--trace 0`` the script repeats the
workload until ``--seconds`` have passed (at least once) and reports
the medians of the end-to-end metrics; set-up is sampled at least
``MIN_SETUPS`` times.  With ``--trace 1`` it runs the workload once
untraced and ``TRACED_REPS`` times traced, and reports the per-layer
metrics plus the tracing overhead.  Every repetition's output is
checked against the paper's shape and its digest against the other
repetitions at the same seed.  The last line of standard output is
one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A fuller report (every repetition, quartiles, environment) is written
under ``.bench_build/reports/``.  ``--held-out`` replaces ``--seed``
by the workload's held-out seed (see ``README.md``).
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"

#: Workload and metric names, units included, come from the spec.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(workload["name"] for workload in SPEC["workloads"])
UNITS = {metric["name"]: metric["unit"]
         for metric in SPEC["end_to_end"] + SPEC["per_layer"]}

#: Workloads with a held-out seed (``bench_workloads.HELD_OUT_SEEDS``).
HELD_OUT = ("fig05_observed", "fct_websearch")

#: Set-up samples per untraced run; repetitions each give one, and
#: set-up-only interpreters make up the rest.
MIN_SETUPS = 3

#: Traced repetitions per traced run: two, so the exact counts of the
#: steadiness oracle can be compared within one run.
TRACED_REPS = 2

#: Every run finishes inside this many seconds; a repetition still
#: running then is killed and counted as failed.
RUN_LIMIT_S = 170.0

#: Counts that must repeat exactly across runs at one seed.
ORACLE = ("sim.events", "sim.bottleneck_pkts", "fluid.steps",
          "workloads.flows", "perf.sweep.cells", "obs.runlog.events")


class Runner:
    """Starts repetitions of one workload and collects their records."""

    def __init__(self, workload: str, seed: int, held_out: bool):
        self.workload = workload
        self.seed = seed
        self.held_out = held_out
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), str(BENCH),
                          os.environ.get("PYTHONPATH")]))
        # Bytecode goes under .bench_build, not next to the sources.
        self.env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
        self._count = 0

    def compile(self) -> None:
        """Byte-compile once, untimed, so set-up never pays for it."""
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        str(ROOT / "src"), str(BENCH)],
                       env=self.env, check=True,
                       stdout=subprocess.DEVNULL,
                       timeout=max(self.deadline - time.monotonic(), 1))

    def rep(self, trace: bool = False,
            setup_only: bool = False) -> Dict[str, Any]:
        """One repetition in a fresh interpreter; returns its record."""
        self._count += 1
        tag = f"{os.getpid()}-{self._count}"
        out = BUILD / "reps" / f"{tag}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        command = [sys.executable, str(BENCH / "rep.py"),
                   "--workload", self.workload, "--seed", str(self.seed),
                   "--workdir", str(BUILD / "work" / tag),
                   "--out", str(out)]
        if self.held_out:
            command.append("--held-out")
        if trace:
            command.append("--trace")
        if setup_only:
            command.append("--setup-only")
        spawned = time.monotonic()
        process = subprocess.Popen(command, env=self.env, cwd=ROOT,
                                   stdout=sys.stderr,
                                   start_new_session=True)
        try:
            code = process.wait(
                timeout=max(self.deadline - time.monotonic(), 0.1))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # The repetition's session holds its pool workers too.
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
        if code is None:
            return {"failures": [f"killed after the {RUN_LIMIT_S:g}s "
                                 f"run limit"]}
        if code != 0 or not out.exists():
            return {"failures": [f"rep.py exited with code {code}"]}
        record = json.loads(out.read_text())
        out.unlink()
        record["setup_s"] = record["ready"] - spawned
        return record


def _summary(values: List[float]) -> Dict[str, Any]:
    """Median, quartiles and sample count of one metric."""
    if not values:
        return {"n": 0}
    out = {"n": len(values), "median": statistics.median(values),
           "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def _mark_digests(reps: List[Dict[str, Any]]) -> None:
    """Fail every repetition whose digest differs from the majority."""
    digests = [rep["digest"] for rep in reps if "digest" in rep]
    if not digests:
        return
    reference, _ = collections.Counter(digests).most_common(1)[0]
    for rep in reps:
        if "digest" in rep and rep["digest"] != reference:
            rep["failures"].append(
                f"digest {rep['digest'][:12]} differs from "
                f"{reference[:12]} at the same seed")


def _untraced(runner: Runner, seconds: float
              ) -> "tuple[List[Dict[str, Any]], Dict[str, Any], Dict]":
    started = time.monotonic()
    reps = [runner.rep()]
    while time.monotonic() - started < seconds:
        reps.append(runner.rep())
    setups = [rep["setup_s"] for rep in reps if "setup_s" in rep]
    for _ in range(MIN_SETUPS - len(setups)):
        probe = runner.rep(setup_only=True)
        if "setup_s" in probe:
            setups.append(probe["setup_s"])
    _mark_digests(reps)
    series = {name: [rep[name] for rep in reps if name in rep]
              for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    series["setup_s"] = setups
    summaries = {name: _summary(values)
                 for name, values in series.items()}
    return reps, _medians(summaries, "end_to_end"), summaries


def _traced(runner: Runner
            ) -> "tuple[List[Dict[str, Any]], Dict[str, Any], Dict]":
    untraced = runner.rep()
    traced = [runner.rep(trace=True) for _ in range(TRACED_REPS)]
    reps = [untraced] + traced
    # Tracing must not change results: all repetitions share a digest.
    _mark_digests(reps)
    layered = [rep for rep in traced if "layers" in rep]
    for rep in layered:
        rep["layers"]["trace.wall_s"] = rep["wall_s"]
    for name in ORACLE:
        values = sorted({rep["layers"][name] for rep in layered})
        if len(values) > 1:
            for rep in layered:
                rep["failures"].append(
                    f"oracle: {name} differs across runs at one seed "
                    f"({values})")
    names = sorted(layered[0]["layers"]) if layered else []
    summaries = {name: _summary([rep["layers"][name] for rep in layered])
                 for name in names}
    if layered and "wall_s" in untraced:
        overhead = summaries["trace.wall_s"]["median"] - untraced["wall_s"]
        summaries["trace.overhead_s"] = {"n": 1, "median": overhead}
    return reps, _medians(summaries, "per_layer"), summaries


def _medians(summaries: Dict[str, Dict[str, Any]],
             kind: str) -> Dict[str, float]:
    """The spec's ``kind`` metrics; 0 where no repetition measured one
    (the run has failed then)."""
    return {metric["name"]: summaries.get(metric["name"], {}).get(
        "median", 0.0) for metric in SPEC[kind]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="use the workload's held-out seed")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.held_out and args.workload not in HELD_OUT:
        parser.error(f"--held-out applies to {', '.join(HELD_OUT)}")
    if not (ROOT / "src" / "repro" / "experiments"
            / "registry.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a full "
              f"checkout", file=sys.stderr)
        return 2

    load_start = os.getloadavg()[0]
    runner = Runner(args.workload, args.seed, args.held_out)
    runner.compile()
    if args.trace:
        reps, metrics, summaries = _traced(runner)
    else:
        reps, metrics, summaries = _untraced(runner, args.seconds)
    load_end = os.getloadavg()[0]

    failed = sum(1 for rep in reps if rep["failures"])
    environment = next((rep["environment"] for rep in reps
                        if "environment" in rep), {})
    environment.update(loadavg_1m_start=load_start,
                       loadavg_1m_end=load_end,
                       host=platform.node())
    report = {"workload": args.workload, "seed": args.seed,
              "held_out": args.held_out, "trace": args.trace,
              "seconds": args.seconds, "environment": environment,
              "failed_frac": failed / len(reps),
              "summaries": summaries, "repetitions": reps}
    path = BUILD / "reports" / (f"{args.workload}-seed{args.seed}"
                                f"{'-heldout' if args.held_out else ''}"
                                f"-trace{args.trace}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=1))

    for index, rep in enumerate(reps, 1):
        status = "ok" if not rep["failures"] else "FAILED"
        timing = " ".join(f"{name}={rep[name]:.3f}" for name in
                          ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")
                          if name in rep)
        print(f"rep {index}: {status} {timing} "
              f"digest={rep.get('digest', '-')[:12]}")
        for failure in rep["failures"]:
            print(f"  {failure.rstrip()}")
    print("environment: " + json.dumps(environment, sort_keys=True))
    for name, summary in summaries.items():
        print(f"{name}: " + json.dumps(summary, sort_keys=True))
    print(f"failed_frac: {failed}/{len(reps)} = {failed / len(reps):g}")
    print(f"report: {path.relative_to(ROOT)}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
