"""Check one e2ebench run against the committed seed-1 expectations.

Run the workload first, keeping its standard output::

    python3 e2ebench/run.py --workload W --seed 1 --seconds 1 --trace 1 \\
        | tee run.log
    python3 .github/e2ebench_check.py W run.log [EXPECTED]

The check fails (exit 1) when the run's result line says
``correct: false`` or ``failed > 0``, when any repetition's digest
differs from the expected one, or when one of the exact-repeat counts
in ``COUNTS`` differs from its expected value.  Wall and CPU time are
not checked.  ``EXPECTED`` defaults to ``.github/e2ebench-expected.json``.
On a mismatch the observed entry is printed as JSON; after a change
that is meant to alter results, paste it into the expected file.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Per-layer counts that repeat exactly at one seed.
COUNTS = ("sim.events", "fluid.steps", "perf.sweep.cells",
          "obs.runlog.events")


def observed_entry(workload):
    """Digest and counts of ``workload``'s seed-1 traced report."""
    path = (ROOT / ".bench_build" / "reports"
            / f"{workload}-seed1-trace1.json")
    report = json.loads(path.read_text())
    # run.py already fails a run whose repetitions disagree on the
    # digest or on these counts; None marks a digest that is not
    # shared by every repetition.
    digests = {rep.get("digest") for rep in report["repetitions"]}
    entry = {"digest": digests.pop() if len(digests) == 1 else None}
    for name in COUNTS:
        entry[name] = int(report["summaries"][name]["median"])
    return entry


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    workload, log = argv[0], Path(argv[1])
    expected_path = Path(argv[2]) if len(argv) == 3 else \
        ROOT / ".github" / "e2ebench-expected.json"
    expected = json.loads(expected_path.read_text())
    if workload not in expected:
        print(f"{workload}: no entry in {expected_path}", file=sys.stderr)
        return 2

    lines = [line for line in log.read_text().splitlines() if line.strip()]
    result = json.loads(lines[-1])
    problems = []
    if not result["correct"]:
        problems.append("result line says correct: false")
    if result["failed"] > 0:
        problems.append(f"{result['failed']} of {result['attempted']} "
                        f"repetitions failed")
    observed = observed_entry(workload)
    for key, got in observed.items():
        want = expected[workload].get(key)
        if got != want:
            problems.append(f"{key}: expected {want}, got {got}")
    if problems:
        print(f"{workload}: FAILED")
        for problem in problems:
            print(f"  {problem}")
        print(f"observed: {json.dumps({workload: observed})}")
        return 1
    print(f"{workload}: ok {json.dumps(observed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
