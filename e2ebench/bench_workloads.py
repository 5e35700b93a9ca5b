"""The benchmark's four workloads, run the way ``repro run`` runs them.

Each workload turns the benchmark seed into program inputs
(:meth:`Workload.prepare`, part of set-up), runs those inputs through
the experiment registry's public ``run``/``report`` calls
(:meth:`Workload.run`, the timed part), and checks the outputs
against the paper's shape (:meth:`Workload.check`).  The program sees
only the generated inputs, never the benchmark seed itself.

See ``README.md`` in this directory for why each workload exists and
which layers it loads.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.experiments import fct_study
from repro.experiments import fig03_dcqcn_phase_margin as fig03
from repro.experiments import fig09_timely_unfairness as fig09
from repro.experiments.registry import EXPERIMENTS
from repro.obs import Telemetry
from repro.obs.forensics import FlowLedger
from repro.perf.cache import ResultCache, canonicalize
from repro.perf.sweep import derive_seed
from repro.sim.topology import dumbbell
from repro.workloads.generator import DynamicWorkload, WorkloadConfig

#: Pool width of the sweep-backed workloads, as ``repro run --workers
#: 2`` runs them: one process feeding two workers.
WORKERS = 2

#: fct_websearch runs fig16 at its nominal load 0.8, but keeps only
#: program seeds whose *realized* offered load is within
#: FCT_LOAD_TOLERANCE of FCT_REALIZED_LOAD.  Web-search sizes are
#: heavy-tailed, so a bare seed realizes anywhere from ~0.55 to ~0.85
#: in the 0.25 s horizon, and simulated events (the work) track the
#: realized load almost linearly; conditioning keeps every seed's run
#: the same size while the flows themselves still differ.  The target
#: is the median realized load over 300 derived seeds (0.634), so the
#: kept inputs are typical ones, not a tail.
FCT_LOAD = 0.8
FCT_REALIZED_LOAD = 0.63
FCT_LOAD_TOLERANCE = 0.02

#: stability_sweep's (N, delay) map: Fig. 3(a)'s grid plus seeded
#: extra points, sized so the cold pass lasts seconds while each cell
#: (one flow count across the delay axis) stays in the tens of ms.
MAP_FLOW_COUNTS = 160
MAP_MAX_FLOWS = 200
MAP_DELAYS = 10
MAP_DELAY_RANGE_US = (4.0, 170.0)
FIG03_DELAYS_US = (4.0, 25.0, 55.0, 85.0, 100.0)

#: Seeds reserved for checking a performance claim on inputs not used
#: while the change was written; ``run.py --held-out`` uses them in
#: place of ``--seed``.  Never tune against them.
HELD_OUT_SEEDS = {"fig05_observed": 7_340_033,
                  "fct_websearch": 7_340_035}


@dataclass
class Outcome:
    """What one timed run produced."""

    #: label -> experiment result, in run order (the digest covers it).
    results: Dict[str, Any]
    reports: List[str] = field(default_factory=list)
    #: The fig05_observed telemetry bundle (run log, forensics ledger).
    telemetry: Any = None
    #: The stability_sweep result cache (hit/miss statistics).
    cache: Optional[ResultCache] = None


@dataclass(frozen=True)
class Workload:
    name: str
    #: Benchmark seed -> program inputs (set-up, untimed).
    prepare: Callable[[int], Dict[str, Any]]
    #: Inputs and a scratch directory -> outcome (the timed run).
    run: Callable[[Dict[str, Any], Path], Outcome]
    #: Failed paper-shape checks (empty when the output is right).
    check: Callable[[Dict[str, Any], Outcome], List[str]]


def digest(results: Dict[str, Any]) -> str:
    """Content hash of a run's results, independent of object identity."""
    payload = json.dumps(canonicalize(results), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _run(outcome: Outcome, label: str, experiment_id: str,
         **kwargs) -> Any:
    """One registry run plus its report, as ``repro run`` does it."""
    experiment = EXPERIMENTS[experiment_id]
    result = experiment.run(**kwargs)
    outcome.reports.append(experiment.report(result))
    outcome.results[label] = result
    return result


# -- fig05_observed ----------------------------------------------------------

def _fig05_prepare(seed: int) -> Dict[str, Any]:
    return {"seed": int(seed)}


def _fig05_run(inputs: Dict[str, Any], workdir: Path) -> Outcome:
    # ``repro run fig05 --telemetry DIR --forensics``
    telemetry = Telemetry(workdir / "telemetry", experiment="fig05")
    telemetry.forensics = FlowLedger()
    outcome = Outcome(results={}, telemetry=telemetry)
    _run(outcome, "fig05", "fig05", workers=None, cache=None,
         telemetry=telemetry, seed=inputs["seed"])
    return outcome


def _fig05_check(inputs: Dict[str, Any], outcome: Outcome) -> List[str]:
    baseline, delayed = outcome.results["fig05"]
    failures = []
    if not delayed.coefficient_of_variation \
            > 2 * baseline.coefficient_of_variation:
        failures.append(
            f"fig05: 85us CoV {delayed.coefficient_of_variation:.3f} "
            f"is not > 2x the 0us CoV "
            f"{baseline.coefficient_of_variation:.3f}")
    return failures


# -- fct_websearch -----------------------------------------------------------

def _run_protocol_defaults() -> Dict[str, Any]:
    return {name: parameter.default for name, parameter in
            inspect.signature(fct_study.run_protocol).parameters.items()
            if parameter.default is not inspect.Parameter.empty}


def realized_load(seed: int) -> float:
    """Offered load fig16's workload generator realizes at ``seed``.

    Builds the same :class:`DynamicWorkload` ``run_protocol`` builds
    (its arrivals and sizes depend on the seed alone) on a throwaway
    dumbbell and reads its ``offered_bytes``; nothing is simulated.
    """
    defaults = _run_protocol_defaults()
    net = dumbbell(defaults["n_pairs"],
                   link_gbps=defaults["capacity_gbps"])
    config = WorkloadConfig(protocol="dcqcn", load=FCT_LOAD,
                            duration=defaults["duration"], seed=seed)
    workload = DynamicWorkload(net, config, params=None)
    return workload.offered_bytes \
        / (net.link_rate_bytes * defaults["duration"])


def _fct_prepare(seed: int) -> Dict[str, Any]:
    for index in range(10_000):
        candidate = derive_seed(seed, index)
        if abs(realized_load(candidate) - FCT_REALIZED_LOAD) \
                <= FCT_LOAD_TOLERANCE:
            return {"seed": candidate}
    raise RuntimeError(f"no program seed realizing load "
                       f"{FCT_REALIZED_LOAD} derives from benchmark "
                       f"seed {seed}")


def _fct_run(inputs: Dict[str, Any], workdir: Path) -> Outcome:
    # ``repro run fig16 --workers 2`` at the derived seed.
    outcome = Outcome(results={})
    _run(outcome, "fig16", "fig16", workers=WORKERS, cache=None,
         seed=inputs["seed"])
    return outcome


def _fct_check(inputs: Dict[str, Any], outcome: Outcome) -> List[str]:
    queues_kb = {run.protocol: run.queue_bytes / 1024.0
                 for run in outcome.results["fig16"]}
    timely_max = float(queues_kb["timely"].max())
    dcqcn_p99 = float(np.percentile(queues_kb["dcqcn"], 99))
    dcqcn_p90 = float(np.percentile(queues_kb["dcqcn"], 90))
    failures = []
    if not timely_max > 2 * dcqcn_p99:
        failures.append(f"fig16: TIMELY queue max {timely_max:.0f} KB "
                        f"is not > 2x DCQCN p99 {dcqcn_p99:.0f} KB")
    if not dcqcn_p90 < 400.0:
        failures.append(f"fig16: DCQCN queue p90 {dcqcn_p90:.0f} KB "
                        f"is not < 400 KB")
    return failures


# -- fluid_dde ---------------------------------------------------------------

def _fluid_prepare(seed: int) -> Dict[str, Any]:
    # The DDE is deterministic: the seed has nothing to drive.
    return {}


def _fluid_run(inputs: Dict[str, Any], workdir: Path) -> Outcome:
    outcome = Outcome(results={})
    _run(outcome, "fig04", "fig04", workers=None, cache=None,
         delays_us=(85.0,), flow_counts=(10,))
    _run(outcome, "fig09c", "fig09", workers=None, cache=None,
         scenarios=[fig09.PAPER_SCENARIOS[2]])
    return outcome


def _fluid_check(inputs: Dict[str, Any],
                  outcome: Outcome) -> List[str]:
    (cell,) = outcome.results["fig04"]
    (panel_c,) = outcome.results["fig09c"]
    failures = []
    if not cell.oscillating:
        failures.append("fig04: the 85us, N=10 cell does not "
                        "limit-cycle")
    if not panel_c.max_min > 1.5:
        failures.append(f"fig09(c): max/min {panel_c.max_min:.3f} is "
                        f"not > 1.5")
    return failures


# -- stability_sweep ---------------------------------------------------------

def _stability_prepare(seed: int) -> Dict[str, Any]:
    rng = np.random.default_rng(seed)
    fig03_flows = set(fig03.DEFAULT_FLOWS)
    extra_flows = rng.choice(
        [n for n in range(1, MAP_MAX_FLOWS + 1) if n not in fig03_flows],
        size=MAP_FLOW_COUNTS - len(fig03_flows), replace=False)
    delays = set(FIG03_DELAYS_US)
    while len(delays) < MAP_DELAYS:
        delays.add(round(float(rng.uniform(*MAP_DELAY_RANGE_US)), 1))
    return {"flow_counts": tuple(sorted(fig03_flows
                                        | {int(n) for n in extra_flows})),
            "delays_us": tuple(sorted(delays))}


def _stability_run(inputs: Dict[str, Any],
                       workdir: Path) -> Outcome:
    # A cold pass into a fresh cache, then the same pass served warm.
    cache = ResultCache(root=workdir / "cache")
    outcome = Outcome(results={}, cache=cache)
    for phase in ("cold", "warm"):
        _run(outcome, f"{phase}/fig03", "fig03", workers=WORKERS,
             cache=cache, delays_us=FIG03_DELAYS_US)
        _run(outcome, f"{phase}/fig11", "fig11", workers=WORKERS,
             cache=cache)
        _run(outcome, f"{phase}/ext_stability_map", "ext_stability_map",
             workers=WORKERS, cache=cache, **inputs)
    return outcome


def _stability_check(inputs: Dict[str, Any],
                      outcome: Outcome) -> List[str]:
    results = outcome.results
    failures = []
    cold = {key[len("cold/"):]: value for key, value in results.items()
            if key.startswith("cold/")}
    warm = {key[len("warm/"):]: value for key, value in results.items()
            if key.startswith("warm/")}
    if digest(cold) != digest(warm):
        failures.append("stability: the warm (cached) pass differs from "
                        "the cold pass")
    stats = outcome.cache.stats
    if stats.hits != stats.misses:
        failures.append(f"stability: warm pass not served from the "
                        f"cache ({stats.hits} hits, {stats.misses} "
                        f"misses)")
    # Fig. 3's numeric Bode sweep and the map's closed-form
    # linearization must agree on stability at every shared cell.
    rows = {row.num_flows: row for row in cold["ext_stability_map"]}
    for delay, sweep in zip(FIG03_DELAYS_US, cold["fig03"]):
        column = inputs["delays_us"].index(delay)
        for n, margin in zip(sweep.flow_counts, sweep.margins_deg):
            mapped = rows[n].margins_deg[column]
            if (margin > 0) != (mapped > 0):
                failures.append(
                    f"fig03: margin sign at N={n}, {delay:g}us "
                    f"({margin:+.2f} deg) disagrees with the map "
                    f"({mapped:+.2f} deg)")
    # Fig. 11: the margin is positive below the crossover's feedback
    # delay and negative from it on -- one sign change along the
    # delay the flows' own queue induces.
    fig11_rows = [row for row in cold["fig11"]
                  if not math.isnan(row.margin_deg)]
    unstable = [row for row in fig11_rows if row.margin_deg <= 0]
    if not unstable or not 10 < unstable[0].num_flows <= 40:
        failures.append("fig11: no stability crossover in (10, 40] "
                        "flows")
    else:
        onset = unstable[0].feedback_delay_us
        for row in fig11_rows:
            if (row.margin_deg > 0) != (row.feedback_delay_us < onset):
                failures.append(
                    f"fig11: margin sign at N={row.num_flows} "
                    f"({row.margin_deg:+.2f} deg, "
                    f"{row.feedback_delay_us:.1f}us) breaks the single "
                    f"crossover at {onset:.1f}us")
    return failures


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("fig05_observed", _fig05_prepare, _fig05_run,
             _fig05_check),
    Workload("fct_websearch", _fct_prepare, _fct_run, _fct_check),
    Workload("fluid_dde", _fluid_prepare, _fluid_run, _fluid_check),
    Workload("stability_sweep", _stability_prepare, _stability_run,
             _stability_check),
)}
