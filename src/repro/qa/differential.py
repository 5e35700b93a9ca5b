"""Differential execution of one scenario: forensics off vs on.

The matrix has a baseline (no forensics) and one comparison class:

========== ============================== ======================
class      variant                        contract
========== ============================== ======================
forensics  FlowLedger attribution on      bit-identical digest
========== ============================== ======================

Per-run oracles fire on every executed variant; the pair oracle
compares each non-baseline variant against the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.qa.oracles import OracleSuite, Violation
from repro.qa.scenario import (
    ScenarioOutcome,
    ScenarioSpec,
    Variant,
    run_scenario,
)

#: The differential matrix, baseline first.
MATRIX: Dict[str, Variant] = {
    "baseline": Variant("baseline"),
    "forensics": Variant("forensics", forensics=True),
}

#: Matrix selections the CLI accepts.
DEFAULT_CLASSES = ("forensics",)


@dataclass
class Verdict:
    """Everything one differential scenario execution produced."""

    spec: ScenarioSpec
    violations: List[Violation] = field(default_factory=list)
    outcomes: Dict[str, ScenarioOutcome] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def oracles_failed(self) -> List[str]:
        """Stable, deduplicated oracle names that fired."""
        seen: List[str] = []
        for violation in self.violations:
            if violation.oracle not in seen:
                seen.append(violation.oracle)
        return seen


class DifferentialRunner:
    """Run specs across the matrix and collect oracle verdicts.

    Parameters
    ----------
    classes:
        Comparison classes to exercise (default: all).  The
        baseline always runs -- it is the reference side of every
        pair and the per-run oracles' primary subject.
    oracles:
        The oracle suite; a custom one mostly makes sense for
        triage (skipping a known-failing oracle).
    """

    def __init__(self, classes: Optional[List[str]] = None,
                 oracles: Optional[OracleSuite] = None):
        names = list(classes) if classes is not None \
            else list(DEFAULT_CLASSES)
        unknown = [n for n in names if n not in MATRIX
                   or n == "baseline"]
        if unknown:
            raise ValueError(
                f"unknown matrix classes {unknown}; choose from "
                f"{sorted(set(MATRIX) - {'baseline'})}")
        self.classes = names
        self.oracles = oracles if oracles is not None else OracleSuite()

    def run(self, spec: ScenarioSpec) -> Verdict:
        """Execute the spec across the matrix and check every oracle."""
        verdict = Verdict(spec=spec)
        base = run_scenario(spec, MATRIX["baseline"])
        verdict.outcomes["baseline"] = base
        verdict.violations.extend(self.oracles.check_run(spec, base))

        for name in self.classes:
            outcome = run_scenario(spec, MATRIX[name])
            verdict.outcomes[name] = outcome
            verdict.violations.extend(
                self.oracles.check_run(spec, outcome))
            verdict.violations.extend(
                self.oracles.check_pair(spec, base, outcome))
        return verdict
