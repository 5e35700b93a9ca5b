"""Command-line entry point: regenerate paper figures from the shell.

Usage::

    python -m repro list                 # enumerate experiments
    python -m repro run fig04            # one figure
    python -m repro run fig04 fig20      # several
    python -m repro run all              # everything (minutes!)
    python -m repro run fig14 --workers 4 --cache
    python -m repro run fig14 --workers 2 --cache --cell-timeout 300
    python -m repro run fig04 --telemetry obs/   # metrics + run log
    python -m repro run ext_incast_pfc --telemetry obs/ --forensics
    python -m repro explain obs/ext_incast_pfc-*.jsonl --worst 3
    python -m repro explain obs/ --flow 7        # one flow's story
    python -m repro report obs/fig04-*.jsonl     # render a run log
    python -m repro report obs/                  # render every log in DIR
    python -m repro watch obs/                   # live dashboard of a run
    python -m repro compare obs_a/ obs_b/        # cross-run regression diff
    python -m repro replay CAPSULE.json          # re-run a failed cell
    python -m repro run fig05 --profile          # sampling profiler

Each run prints the table of numbers the corresponding paper figure
plots, via the same drivers the benchmarks use.  ``--workers`` fans
grid experiments over a local process pool and ``--cache``
memoizes their cells on disk (see :mod:`repro.perf`); both are
accepted by every experiment and ignored by those without a sweep to
accelerate.
``--telemetry DIR`` records each run's metrics, spans, warnings and
health findings into DIR (see :mod:`repro.obs`); ``report`` turns the
resulting JSONL logs back into human-readable dashboards, ``watch``
tails one live from another terminal, and ``compare`` diffs two
telemetry directories with noise-aware regression thresholds.
``--forensics`` additionally attributes every flow's completion time
to named components (serialization, queueing, PFC pause, rate
limiting; see :mod:`repro.obs.forensics`) and logs
one ``flow`` event per flow; ``explain`` renders those attributions
with their causal chains (which switch marked the flow, which pause
storm throttled it).

``--cache`` is also how a crashed or interrupted sweep resumes: each
cell is stored as it finishes, so rerunning with the same cache
recomputes only the missing cells, bit-identical to an uninterrupted
run.  ``--cell-timeout`` bounds how long a single cell may run
(parallel sweeps only) and quarantines, instead of aborting on, a
cell that raises or hangs; cells are deterministic, so a failed cell
is not retried.  A quarantined cell leaves a crash capsule (under
``<cache dir>/capsules``) that ``replay`` re-executes serially
(optionally under ``--telemetry``) to reproduce the original failure
for debugging (see :mod:`repro.perf.resilience`).

``run --profile`` samples the engine hot loops from a sidecar thread
(:mod:`repro.obs.profile`) and prints where the wall time went.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.experiments.registry import EXPERIMENTS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce figures from 'ECN or Delay' "
                    "(CoNEXT 2016)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one or more experiments")
    run.add_argument("experiments", nargs="+",
                     help="experiment ids (see 'list'), or 'all'")
    run.add_argument("--csv", metavar="DIR", default=None,
                     help="also write each result as CSV into DIR")
    run.add_argument("--workers", type=int, default=None, metavar="N",
                     help="fan sweep cells over N processes "
                          "(-1 = all cores; default serial)")
    run.add_argument("--cache", action="store_true",
                     help="memoize sweep cells in the on-disk result "
                          "cache (REPRO_CACHE_DIR or ~/.cache/repro)")
    run.add_argument("--cache-dir", default=None, metavar="DIR",
                     help="cache directory (implies --cache)")
    run.add_argument("--telemetry", metavar="DIR", default=None,
                     help="record metrics, spans, health findings and "
                          "a JSONL run log per experiment into DIR")
    run.add_argument("--profile", action="store_true",
                     help="sample the engine hot loops from a sidecar "
                          "thread and print the per-category time "
                          "shares after each experiment")
    run.add_argument("--forensics", action="store_true",
                     help="attribute each flow's FCT to named "
                          "components and log per-flow 'flow' events "
                          "for 'repro explain' (requires --telemetry)")
    run.add_argument("--telemetry-fsync", action="store_true",
                     help="fsync every run-log event (promptest "
                          "'repro watch' tail; costs a syscall per "
                          "event)")
    run.add_argument("--cell-timeout", type=float, default=None,
                     metavar="S",
                     help="per-cell wall-clock budget in seconds "
                          "(parallel sweeps only); a cell that raises "
                          "or outlives it is quarantined as a "
                          "CellFailure with a crash capsule instead "
                          "of aborting the run")
    report = sub.add_parser(
        "report", help="render telemetry run logs as dashboards")
    report.add_argument("runlog",
                        help="a <run-id>.jsonl file written by "
                             "--telemetry, or a directory of them "
                             "(every *.jsonl inside is rendered)")
    report.add_argument("--validate-only", action="store_true",
                        help="check the log(s) against the RunLog "
                             "schema and exit without rendering")
    explain = sub.add_parser(
        "explain", help="per-flow FCT attribution and causal chain "
                        "from a --forensics run log")
    explain.add_argument("runlog",
                         help="a <run-id>.jsonl file from a "
                              "'run --forensics --telemetry' "
                              "invocation, or a directory (newest "
                              "log inside is used)")
    explain.add_argument("--flow", type=int, default=None, metavar="N",
                         help="explain one flow id (all contexts it "
                              "appears in)")
    explain.add_argument("--worst", type=int, default=5, metavar="K",
                         help="show the K worst completed flows by "
                              "FCT (default 5)")
    explain.add_argument("--context", default=None, metavar="C",
                         help="restrict to one experiment context "
                              "(e.g. 'dcqcn+pfc')")

    watch = sub.add_parser(
        "watch", help="live dashboard tailing a run log as it is "
                      "written")
    watch.add_argument("target",
                       help="a run-log .jsonl path, or a telemetry "
                            "directory (newest log inside is "
                            "followed)")
    watch.add_argument("--experiment", default=None, metavar="ID",
                       help="with a directory target, follow the "
                            "newest log of this experiment")
    watch.add_argument("--interval", type=float, default=0.5,
                       metavar="S", help="poll/redraw period "
                                         "(default 0.5s)")
    watch.add_argument("--once", action="store_true",
                       help="render the current state once and exit")
    compare = sub.add_parser(
        "compare", help="diff two telemetry dirs with noise-aware "
                        "thresholds")
    compare.add_argument("before", help="baseline telemetry directory")
    compare.add_argument("after", help="candidate telemetry directory")
    compare.add_argument("--rtol", type=float, default=None,
                         metavar="R",
                         help="force one relative tolerance for every "
                              "metric (default: per-metric, wide for "
                              "timing noise)")
    compare.add_argument("--fail-on-regression", action="store_true",
                         help="exit 1 on regressions or new health "
                              "findings (the CI gate)")

    replay = sub.add_parser(
        "replay", help="re-execute a crash capsule's cell serially "
                       "to reproduce its failure")
    replay.add_argument("capsule",
                        help="a *.capsule.json file written when a "
                             "sweep cell was quarantined")
    replay.add_argument("--telemetry", metavar="DIR", default=None,
                        help="run the replay under full telemetry/"
                             "health, recording into DIR")

    return parser


def list_experiments() -> None:
    width = max(len(key) for key in EXPERIMENTS)
    for key in sorted(EXPERIMENTS):
        print(f"{key:<{width}}  {EXPERIMENTS[key].description}")


def _print_cache_stats(name: str, cache, baseline: dict) -> dict:
    """Print this experiment's share of the cache traffic.

    ``baseline`` is the stats snapshot before the experiment ran; the
    delta is what this run alone contributed.  Returns the updated
    snapshot for the next experiment.
    """
    snapshot = cache.stats.as_dict()
    delta = {key: snapshot[key] - baseline.get(key, 0)
             for key in ("hits", "misses", "puts", "invalidations")}
    lookups = delta["hits"] + delta["misses"]
    rate = delta["hits"] / lookups if lookups else 0.0
    print(f"[{name} cache: {delta['hits']} hits, "
          f"{delta['misses']} misses, {delta['puts']} puts, "
          f"hit rate {rate:.0%}]")
    return snapshot


def _build_resilience(cell_timeout: "float | None",
                      cache_dir: "str | None"):
    """Translate ``--cell-timeout`` into a policy (or None).

    Crash capsules live beside the result cache, so ``--cache-dir``
    (or ``REPRO_CACHE_DIR``) relocates both together.
    """
    if cell_timeout is None:
        return None
    from pathlib import Path

    from repro.perf import ResiliencePolicy
    return ResiliencePolicy(
        cell_timeout=cell_timeout,
        capsule_dir=Path(cache_dir) / "capsules" if cache_dir
        else None)


def _print_failures(name: str, failures) -> None:
    """Summarize quarantined cells and where their capsules went."""
    print(f"[{name}: {len(failures)} cell(s) quarantined]")
    for failure in failures:
        print(f"  cell[{failure.index}] {failure.kind}: "
              f"{failure.error_type}: {failure.error_message} "
              f"({failure.attempts} attempt(s))")
        if failure.capsule_path is not None:
            print(f"    replay: python -m repro replay "
                  f"{failure.capsule_path}")


def run_experiments(names: List[str],
                    csv_dir: "str | None" = None,
                    workers: Optional[int] = None,
                    use_cache: bool = False,
                    cache_dir: "str | None" = None,
                    telemetry_dir: "str | None" = None,
                    telemetry_fsync: bool = False,
                    cell_timeout: Optional[float] = None,
                    profile: bool = False,
                    forensics: bool = False) -> int:
    if forensics and telemetry_dir is None:
        print("--forensics needs --telemetry DIR (flow events land "
              "in the run log)", file=sys.stderr)
        return 2
    if names == ["all"]:
        names = sorted(EXPERIMENTS)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}",
              file=sys.stderr)
        print("use 'python -m repro list' to see what exists",
              file=sys.stderr)
        return 2
    if cell_timeout is not None and not cell_timeout > 0:
        print(f"--cell-timeout must be a positive number of seconds, "
              f"got {cell_timeout:g}", file=sys.stderr)
        return 2
    cache = None
    cache_baseline: dict = {}
    if use_cache or cache_dir is not None:
        from repro.perf import ResultCache, default_cache_dir
        cache = ResultCache(root=cache_dir or default_cache_dir())
        # The cache is what survives a crash; a writer killed
        # mid-``put`` leaks its temp file, so sweep those up here.
        cache.reap_stale_tmp()
    resilience = _build_resilience(cell_timeout, cache_dir)
    quarantined = 0
    for name in names:
        experiment = EXPERIMENTS[name]
        print(f"=== {name}: {experiment.description} ===")
        started = time.time()
        telemetry = None
        if telemetry_dir is not None:
            from repro.obs import Telemetry
            telemetry = Telemetry(telemetry_dir, experiment=name,
                                  fsync=telemetry_fsync)
            if forensics:
                from repro.obs.forensics import FlowLedger
                telemetry.forensics = FlowLedger()
        profiler = None
        if profile:
            from repro.obs.profile import SamplingProfiler
            profiler = SamplingProfiler().start()
            if telemetry is not None:
                # Telemetry stops it during finalization and logs
                # the summary as a ``profile`` run-log event before
                # the log closes; the later stop() is a no-op.
                telemetry.profiler = profiler
        try:
            result = experiment.run(workers=workers, cache=cache,
                                    telemetry=telemetry,
                                    resilience=resilience)
        finally:
            if profiler is not None:
                profiler.stop()
                profiler.publish()
        if profiler is not None:
            print(f"[profile: {name}]")
            print(profiler.format_report())
        failures = []
        if resilience is not None:
            from repro.perf import collect_failures
            failures = collect_failures(result)
        if failures:
            # Report functions assume complete grids; a CellFailure
            # placeholder would crash them, so summarize instead.
            quarantined += len(failures)
            _print_failures(name, failures)
        else:
            print(experiment.report(result))
        if csv_dir is not None:
            from pathlib import Path

            from repro.analysis.export import write_csv
            Path(csv_dir).mkdir(parents=True, exist_ok=True)
            target = write_csv(result, f"{csv_dir}/{name}.csv")
            print(f"[csv written to {target}]")
        if telemetry is not None:
            print(f"[run log: {telemetry.runlog_path}]")
            if telemetry.verdict is not None:
                print(f"[health verdict: {telemetry.verdict}]")
            if telemetry.forensics is not None:
                flows = len(telemetry.forensics.records())
                print(f"[forensics: {flows} flow(s) attributed; "
                      f"explain with: python -m repro explain "
                      f"{telemetry.runlog_path} --worst 5]")
            for path in telemetry.export_paths:
                print(f"[metrics export: {path}]")
        if cache is not None:
            cache_baseline = _print_cache_stats(name, cache,
                                                cache_baseline)
        print(f"[{name} took {time.time() - started:.1f}s]\n")
    if cache is not None:
        stats = cache.stats
        print(f"[cache: {stats.hits} hits, {stats.misses} misses, "
              f"{stats.invalidations} invalidated, root={cache.root}]")
    return 1 if quarantined else 0


def replay_crash_capsule(path: str,
                         telemetry_dir: "str | None" = None) -> int:
    """Re-run a crash capsule's cell serially and report the outcome.

    Exit 0 if the cell now succeeds, 1 if it fails again (the usual,
    useful case -- the traceback is printed for debugging), 2 if the
    capsule itself cannot be loaded.
    """
    from repro.perf import replay_capsule

    try:
        outcome = replay_capsule(path, telemetry=telemetry_dir)
    except (OSError, ValueError) as error:
        print(f"cannot replay {path}: {error}", file=sys.stderr)
        return 2
    capsule = outcome.capsule
    print(f"=== replay {capsule.experiment_id} cell "
          f"{capsule.cell_key[:12]} ===")
    print(f"fn:       {capsule.fn}")
    print(f"params:   {capsule.params}")
    print(f"original: {capsule.kind} -- {capsule.error_type}: "
          f"{capsule.error_message} (after {capsule.attempts} "
          f"attempt(s))")
    if outcome.reproduced:
        print(f"replay:   failed again in {outcome.elapsed_s:.2f}s -- "
              f"{outcome.error_type}: {outcome.error_message}")
        match = ("matches the original failure"
                 if outcome.matches_original
                 else "DIFFERS from the original failure")
        print(f"          ({match})")
        if outcome.traceback:
            print()
            print(outcome.traceback.rstrip())
        return 1
    print(f"replay:   succeeded in {outcome.elapsed_s:.2f}s "
          f"(failure did not reproduce)")
    print(f"value:    {outcome.value!r}")
    return 0


def report_runlog(path: str, validate_only: bool = False) -> int:
    """Validate (and by default render) ``--telemetry`` run logs.

    ``path`` may be one ``.jsonl`` file or a telemetry directory, in
    which case every ``*.jsonl`` inside is validated/rendered; the
    exit code is non-zero if *any* log fails validation.
    """
    from pathlib import Path

    from repro.obs.report import render_report
    from repro.obs.runlog import validate_file

    target = Path(path)
    if target.is_dir():
        logs = sorted(target.glob("*.jsonl"))
        if not logs:
            print(f"{path}: no run logs (*.jsonl) found",
                  file=sys.stderr)
            return 2
    else:
        logs = [target]

    failures = 0
    for index, log in enumerate(logs):
        errors = validate_file(log)
        if errors:
            failures += 1
            print(f"{log}: {len(errors)} schema violation(s)",
                  file=sys.stderr)
            for error in errors:
                print(f"  {error}", file=sys.stderr)
            continue
        if validate_only:
            print(f"{log}: valid run log")
            continue
        if len(logs) > 1 and index:
            print()
        print(render_report(log))
    return 1 if failures else 0


def explain_runlog(path: str, flow_id: "int | None" = None,
                   worst: int = 5,
                   context: "str | None" = None) -> int:
    """Render per-flow FCT attributions (the ``explain`` command).

    ``path`` may be one ``.jsonl`` run log or a telemetry directory
    (the newest log inside is used).  Exit 2 when the target has no
    ``flow`` events -- i.e. the run was made without ``--forensics``.
    """
    from pathlib import Path

    from repro.obs.forensics import render_explain
    from repro.obs.runlog import read_events

    target = Path(path)
    if target.is_dir():
        logs = sorted(target.glob("*.jsonl"),
                      key=lambda p: p.stat().st_mtime)
        if not logs:
            print(f"{path}: no run logs (*.jsonl) found",
                  file=sys.stderr)
            return 2
        target = logs[-1]
    try:
        events = read_events(target)
    except (OSError, ValueError) as error:
        print(f"cannot read {target}: {error}", file=sys.stderr)
        return 2
    flows = [e for e in events if e.get("type") == "flow"]
    if not flows:
        print(f"{target}: no flow events -- re-run with "
              f"'--telemetry DIR --forensics'", file=sys.stderr)
        return 2
    print(f"[{target}]")
    print(render_explain(flows, flow_id=flow_id, worst=worst,
                         context=context))
    return 0


def main(argv: "List[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        list_experiments()
        return 0
    if args.command == "report":
        return report_runlog(args.runlog,
                             validate_only=args.validate_only)
    if args.command == "explain":
        return explain_runlog(args.runlog, flow_id=args.flow,
                              worst=args.worst,
                              context=args.context)
    if args.command == "watch":
        from repro.obs.live import watch
        try:
            return watch(args.target, experiment=args.experiment,
                         interval=args.interval, once=args.once)
        except (FileNotFoundError, ValueError) as error:
            print(error, file=sys.stderr)
            return 2
    if args.command == "compare":
        from repro.obs.diff import compare, render_report
        try:
            report = compare(args.before, args.after, rtol=args.rtol)
        except (FileNotFoundError, NotADirectoryError) as error:
            print(error, file=sys.stderr)
            return 2
        print(render_report(report))
        return report.exit_code(args.fail_on_regression)
    if args.command == "replay":
        return replay_crash_capsule(args.capsule,
                                    telemetry_dir=args.telemetry)
    return run_experiments(args.experiments, csv_dir=args.csv,
                           workers=args.workers,
                           use_cache=args.cache,
                           cache_dir=args.cache_dir,
                           telemetry_dir=args.telemetry,
                           telemetry_fsync=args.telemetry_fsync,
                           cell_timeout=args.cell_timeout,
                           profile=args.profile,
                           forensics=args.forensics)


if __name__ == "__main__":
    sys.exit(main())
