"""repro.qa -- differential chaos-conformance harness.

A seeded :class:`~repro.qa.fuzzer.ScenarioFuzzer` generates
randomized-but-valid scenarios; the
:class:`~repro.qa.differential.DifferentialRunner` executes each one
with flow forensics off and on (the two runs must be bit-identical)
under an :class:`~repro.qa.oracles.OracleSuite` of scenario-independent
invariants; violations are delta-debugged to minimal reproducers by
the :class:`~repro.qa.shrink.Shrinker` and persisted as
``repro replay``-compatible crash capsules.  ``repro fuzz`` is the
CLI; :func:`~repro.qa.driver.run_fuzz` the API.
"""

from repro.qa.capsule import (
    OracleViolation,
    check_scenario,
    corpus_capsules,
    replay_corpus,
)
from repro.qa.differential import DifferentialRunner, MATRIX, Verdict
from repro.qa.driver import FuzzReport, format_report, run_fuzz
from repro.qa.fuzzer import ScenarioFuzzer
from repro.qa.oracles import OracleSuite, Violation
from repro.qa.scenario import (
    FaultSpec,
    FlowSpec,
    ScenarioOutcome,
    ScenarioSpec,
    Variant,
    outcome_digest,
    run_scenario,
)
from repro.qa.shrink import Shrinker, ShrinkResult

__all__ = [
    "DifferentialRunner",
    "FaultSpec",
    "FlowSpec",
    "FuzzReport",
    "MATRIX",
    "OracleSuite",
    "OracleViolation",
    "ScenarioFuzzer",
    "ScenarioOutcome",
    "ScenarioSpec",
    "ShrinkResult",
    "Shrinker",
    "Variant",
    "Verdict",
    "Violation",
    "check_scenario",
    "corpus_capsules",
    "format_report",
    "outcome_digest",
    "replay_corpus",
    "run_fuzz",
    "run_scenario",
]
