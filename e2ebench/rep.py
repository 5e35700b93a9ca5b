"""One benchmark repetition in a fresh interpreter.

``run.py`` starts this script once per repetition, so every repetition
pays the imports a user's ``repro run`` pays, and its CPU time and
peak memory cover exactly one run (pool workers included).  The script
imports the experiment registry, resolves the workload's inputs from
the seed, stamps the monotonic clock (the end of set-up), then runs,
checks and digests the workload and writes one JSON record to
``--out``.  With ``--setup-only`` it stops after the stamp.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.  RUSAGE_CHILDREN holds the
    # largest pool worker that has been waited for.
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--held-out", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import bench_workloads
    workload = bench_workloads.WORKLOADS[args.workload]
    seed = bench_workloads.HELD_OUT_SEEDS[args.workload] \
        if args.held_out else args.seed
    inputs = workload.prepare(seed)
    record = {"ready": time.monotonic(), "inputs": inputs}
    if args.setup_only:
        args.out.write_text(json.dumps(record))
        return 0

    import numpy
    from repro.perf.sweep import effective_cpu_count
    record["environment"] = {
        "effective_cpu_count": effective_cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform()}

    shutil.rmtree(args.workdir, ignore_errors=True)
    args.workdir.mkdir(parents=True)
    tracer = profiler = None
    if args.trace:
        from layer_trace import LayerTracer
        from repro.obs.profile import SamplingProfiler
        child_dir = args.workdir / "trace"
        child_dir.mkdir()
        tracer = LayerTracer(child_dir)
        tracer.install()
        profiler = SamplingProfiler()

    failures = []
    try:
        cpu_before = _cpu_seconds()
        if profiler is not None:
            profiler.start()
        started = time.perf_counter()
        outcome = workload.run(inputs, args.workdir)
        wall_s = time.perf_counter() - started
        if profiler is not None:
            profiler.stop()
        record["wall_s"] = wall_s
        record["cpu_s"] = _cpu_seconds() - cpu_before
        record["peak_rss_mb"] = _peak_rss_mb()
        failures.extend(workload.check(inputs, outcome))
        record["digest"] = bench_workloads.digest(outcome.results)
        if tracer is not None:
            layers, trace_failures = tracer.metrics(wall_s, outcome,
                                                    profiler)
            record["layers"] = layers
            failures.extend(trace_failures)
    except Exception:
        failures.append("raised: " + traceback.format_exc())
    record["failures"] = failures
    args.out.write_text(json.dumps(record))
    shutil.rmtree(args.workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
