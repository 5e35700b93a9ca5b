"""The ``repro fuzz`` session: generate, differentiate, shrink, persist.

One :func:`run_fuzz` call is a complete chaos-conformance campaign:

1. :class:`~repro.qa.fuzzer.ScenarioFuzzer` streams deterministic
   scenarios (``--budget N`` of them, or as many as fit in
   ``--seconds S``);
2. each runs through the
   :class:`~repro.qa.differential.DifferentialRunner` matrix and the
   :class:`~repro.qa.oracles.OracleSuite`;
3. violating scenarios are (optionally) delta-debugged by the
   :class:`~repro.qa.shrink.Shrinker` and written as replayable
   crash capsules (``repro replay <capsule>``).

Observability rides the standard stack: ``qa.*`` metrics in the
active registry and ``fuzz`` events in the run log when a telemetry
bundle is active.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional

from repro.obs import telemetry as _telemetry
from repro.obs.metrics import get_registry
from repro.qa.capsule import capsule_for_verdict, write_capsule
from repro.qa.differential import DifferentialRunner
from repro.qa.fuzzer import ScenarioFuzzer
from repro.qa.oracles import OracleSuite
from repro.qa.shrink import Shrinker


@dataclass
class FuzzFinding:
    """One violating scenario, possibly shrunk, possibly persisted."""

    index: int
    spec_key: str
    oracles: List[str]
    messages: List[str]
    shrunk_key: Optional[str] = None
    shrink_accepted: int = 0
    capsule_path: Optional[str] = None


@dataclass
class FuzzReport:
    """What a fuzz campaign did, for the CLI and for tests."""

    seed: int
    scenarios_run: int = 0
    violations: int = 0
    elapsed_s: float = 0.0
    findings: List[FuzzFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.violations == 0


def _emit_fuzz_event(event: str, **fields) -> None:
    active = _telemetry.current()
    if active is None:
        return
    try:
        active.run_log.fuzz(event=event, **fields)
    except ValueError:
        pass  # run log already finished


def run_fuzz(budget: Optional[int] = None,
             seconds: Optional[float] = None,
             seed: int = 0,
             matrix: Optional[List[str]] = None,
             skip_oracles: Optional[List[str]] = None,
             shrink: bool = False,
             capsule_dir: Optional[str] = None,
             start_index: int = 0,
             log: Optional[Callable[[str], None]] = None
             ) -> FuzzReport:
    """Run a fuzz campaign; see the module docstring.

    Exactly one of ``budget`` (scenario count) or ``seconds``
    (wall-clock cap; at least one scenario always runs) bounds the
    campaign -- ``budget`` wins when both are given.
    """
    if budget is None and seconds is None:
        raise ValueError("need a budget or a seconds cap")
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    say = log if log is not None else (lambda message: None)
    registry = get_registry()
    fuzzer = ScenarioFuzzer(seed)
    runner = DifferentialRunner(
        classes=matrix, oracles=OracleSuite(skip=skip_oracles))
    shrinker = Shrinker(runner)
    report = FuzzReport(seed=seed)
    started = time.monotonic()
    _emit_fuzz_event("summary_start", seed=seed, budget=budget,
                     seconds=seconds, matrix=runner.classes)

    index = start_index
    while True:
        if budget is not None and \
                report.scenarios_run >= budget:
            break
        if budget is None and report.scenarios_run > 0 and \
                time.monotonic() - started >= seconds:
            break
        spec = fuzzer.generate(index)
        _emit_fuzz_event("scenario_start", index=index,
                         spec_key=spec.key(),
                         topology=spec.topology,
                         flows=len(spec.flows),
                         faults=len(spec.faults))
        verdict = runner.run(spec)
        report.scenarios_run += 1
        registry.counter("qa.fuzz.scenarios_total").inc()
        if verdict.ok:
            _emit_fuzz_event("scenario_ok", index=index,
                             spec_key=spec.key())
        else:
            report.violations += 1
            registry.counter("qa.fuzz.violations_total").inc()
            finding = FuzzFinding(
                index=index, spec_key=spec.key(),
                oracles=verdict.oracles_failed(),
                messages=[str(v) for v in verdict.violations])
            say(f"scenario {index} ({spec.key()}): VIOLATION "
                f"{', '.join(finding.oracles)}")
            for message in finding.messages[:4]:
                say(f"  {message}")
            _emit_fuzz_event("violation", index=index,
                             spec_key=spec.key(),
                             oracles=finding.oracles,
                             messages=finding.messages[:8])
            if shrink:
                result = shrinker.shrink(spec, finding.oracles[0],
                                         log=say)
                verdict = result.verdict
                finding.shrunk_key = result.spec.key()
                finding.shrink_accepted = result.candidates_accepted
                say(f"  shrunk to {result.spec.key()} after "
                    f"{result.candidates_tried} candidates")
                _emit_fuzz_event(
                    "shrunk", index=index,
                    spec_key=spec.key(),
                    shrunk_key=result.spec.key(),
                    candidates_tried=result.candidates_tried,
                    candidates_accepted=result.candidates_accepted)
            if capsule_dir is not None:
                capsule = capsule_for_verdict(
                    verdict, fuzz_seed=seed, index=index,
                    matrix=matrix, skip=skip_oracles)
                path = write_capsule(capsule, capsule_dir)
                finding.capsule_path = str(path)
                say(f"  capsule: {path}")
            report.findings.append(finding)
        index += 1

    report.elapsed_s = time.monotonic() - started
    registry.gauge("qa.fuzz.last_run_scenarios").set(
        report.scenarios_run)
    registry.gauge("qa.fuzz.last_run_violations").set(
        report.violations)
    _emit_fuzz_event("summary", seed=seed,
                     scenarios=report.scenarios_run,
                     violations=report.violations,
                     elapsed_s=round(report.elapsed_s, 3))
    return report


def format_report(report: FuzzReport) -> str:
    """Human-readable campaign summary for the CLI."""
    lines = [
        f"fuzz seed={report.seed}: {report.scenarios_run} scenarios "
        f"in {report.elapsed_s:.1f}s, "
        f"{report.violations} violation(s)"]
    for finding in report.findings:
        lines.append(
            f"  scenario {finding.index} [{finding.spec_key}] "
            f"tripped {', '.join(finding.oracles)}")
        if finding.shrunk_key and \
                finding.shrunk_key != finding.spec_key:
            lines.append(
                f"    shrunk -> {finding.shrunk_key} "
                f"({finding.shrink_accepted} reductions)")
        if finding.capsule_path:
            lines.append(f"    capsule -> {finding.capsule_path}")
    if report.ok:
        lines.append("  all oracles clean")
    return "\n".join(lines)


def default_capsule_dir(base: Optional[str] = None) -> Path:
    """Where ``repro fuzz`` drops capsules unless told otherwise."""
    root = Path(base) if base is not None else Path("runs")
    return root / "fuzz-capsules"
