"""Crash capsules for oracle violations, and the regression corpus.

A violating scenario is persisted as a standard
:class:`~repro.perf.resilience.CrashCapsule` whose cell function is
:func:`check_scenario` below -- so ``repro replay <capsule>`` works on
fuzz findings exactly as it does on sweep crashes: it re-executes the
scenario across the differential matrix and exits 1 when the oracles
still object, 0 once the bug is fixed.

The same mechanism gives CI a **regression corpus**: shrunk capsules
checked in under ``tests/corpus/`` are replayed by the test suite,
which asserts they do *not* reproduce on shipped code (each one is a
bug that was fixed, or a tolerance that was tuned; if one fires
again, the regression is back).
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.perf.cache import canonicalize
from repro.perf.resilience import (
    CrashCapsule,
    ReplayResult,
    capsule_path_for,
    encode_value,
    replay_capsule,
)
from repro.qa.differential import DifferentialRunner, Verdict
from repro.qa.oracles import OracleSuite
from repro.qa.scenario import ScenarioSpec


class OracleViolation(AssertionError):
    """A conformance scenario tripped one or more oracles."""

    def __init__(self, oracles: List[str], messages: List[str]):
        self.oracles = list(oracles)
        self.messages = list(messages)
        summary = "; ".join(messages[:4])
        if len(messages) > 4:
            summary += f"; ... ({len(messages) - 4} more)"
        super().__init__(
            f"oracle(s) {', '.join(oracles)} violated: {summary}")


def check_scenario(spec: Dict[str, Any],
                   matrix: Optional[List[str]] = None,
                   skip: Optional[List[str]] = None) -> Dict[str, Any]:
    """Replay target: run one scenario, raise if oracles object.

    ``spec`` is a :meth:`ScenarioSpec.to_dict` payload (plain JSON
    types, so capsules stay human-readable); ``matrix`` selects
    comparison classes and ``skip`` disables oracles, both matching
    the fuzz run that produced the capsule.  Raises
    :class:`OracleViolation` when any oracle fires -- which is what
    ``repro replay`` counts as "reproduced".
    """
    scenario = ScenarioSpec.from_dict(spec)
    scenario.validate()
    runner = DifferentialRunner(
        classes=matrix, oracles=OracleSuite(skip=skip))
    verdict = runner.run(scenario)
    if verdict.violations:
        raise OracleViolation(
            verdict.oracles_failed(),
            [str(v) for v in verdict.violations])
    return {
        "spec_key": scenario.key(),
        "variants_run": sorted(verdict.outcomes),
    }


def capsule_for_verdict(verdict: Verdict, fuzz_seed: int, index: int,
                        matrix: Optional[List[str]] = None,
                        skip: Optional[List[str]] = None
                        ) -> CrashCapsule:
    """Package a violating verdict as a replayable capsule."""
    spec = verdict.spec
    kwargs = {"spec": spec.to_dict()}
    if matrix is not None:
        kwargs["matrix"] = list(matrix)
    if skip is not None:
        kwargs["skip"] = list(skip)
    oracles = verdict.oracles_failed()
    messages = [str(v) for v in verdict.violations]
    return CrashCapsule(
        experiment_id=f"fuzz-seed{fuzz_seed}",
        cell_key=f"scenario{index}-{spec.key()}",
        fn="repro.qa.capsule:check_scenario",
        kwargs_pickle=encode_value(kwargs),
        params=canonicalize(kwargs),
        fingerprint=spec.key(),
        kind="oracle_violation",
        error_type="OracleViolation",
        error_message="; ".join(messages[:4]),
        traceback="",
        attempts=1,
        created_ts=time.time(),
        seed=spec.seed,
    )


def write_capsule(capsule: CrashCapsule,
                  capsule_dir: Union[str, Path]) -> Path:
    """Write under the standard sweep-capsule naming scheme."""
    path = capsule_path_for(capsule_dir, capsule.experiment_id,
                            capsule.cell_key)
    return capsule.write(path)


def corpus_capsules(corpus_dir: Union[str, Path]) -> List[Path]:
    """The checked-in regression corpus, sorted for determinism."""
    root = Path(corpus_dir)
    if not root.is_dir():
        return []
    return sorted(root.glob("*.capsule.json"))


def replay_corpus(corpus_dir: Union[str, Path]
                  ) -> Iterable[Tuple[Path, ReplayResult]]:
    """Replay every corpus capsule, yielding ``(path, result)``.

    A healthy tree yields ``reproduced=False`` for every entry.
    """
    for path in corpus_capsules(corpus_dir):
        yield path, replay_capsule(path)
