"""Cross-run regression diffing: ``python -m repro compare A B``.

Compares two telemetry directories of run logs (written by ``repro
run --telemetry DIR``) and reports, with noise-aware thresholds:

* **regressions** -- metrics that moved in the bad direction by more
  than the tolerance,
* **improvements** -- moved in the good direction by more than it,
* **new / resolved health findings** -- pathologies present in one
  side only, plus per-experiment verdict transitions,
* **added / removed metrics** -- coverage changes.

Direction and tolerance come from name heuristics
(:func:`metric_direction`, :func:`metric_rtol`): throughput-style
names are higher-is-better, latency/error-style names are
lower-is-better, and wall-clock timings get a wide tolerance because
they are the noisiest thing a shared CI runner measures.  Everything
is overridable via :func:`compare`'s arguments.

CI's resume smoke test gates on ``repro compare REF_DIR RESUMED_DIR
--fail-on-regression``.  Speed is not judged here: that is the job of
the end-to-end benchmark in ``e2ebench/``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.obs.runlog import read_events

#: Default relative tolerance for steady metrics.
DEFAULT_RTOL = 0.02

#: Relative tolerance for wall-clock style metrics (noisy on shared
#: runners; a 25% swing in a timing is routine).
NOISY_RTOL = 0.25

#: Name fragments marking a metric as higher-is-better.
_HIGHER_BETTER = ("per_sec", "per_second", "throughput", "hit_rate",
                  "hits", "utilization", "goodput", "jain",
                  "flows_completed")

#: Name fragments marking a metric as lower-is-better.  The
#: ``*_share`` entries are the forensics FCT-attribution components
#: (:mod:`repro.obs.forensics`): more of a flow's completion time
#: spent paused, queueing, rate-limited -- or unattributed -- is
#: worse; serialization/propagation shares stay neutral (they grow
#: exactly when the bad shares shrink).
_LOWER_BETTER = ("wall_s", "cpu_s", "_seconds", "seconds_total",
                 "latency", "rtt", "misses", "drops", "drop_rate",
                 "aborts", "retries", "pauses", "divergence",
                 "findings", "occupancy", "pending", "_s",
                 "paused_share", "queueing_share",
                 "rate_limited_share", "residual_share")

#: Name fragments marking a metric as timing-noisy (wide tolerance).
#: They match only at the end of the name or of a dotted component,
#: so counts such as ``pfc.sw.pauses_sent_total`` and fractions such
#: as ``obs.forensics.paused_share.mean`` keep the tight default.
_NOISY = ("wall_s", "cpu_s", "_seconds", "per_sec", "per_second",
          "_s", "latency")


def metric_direction(name: str) -> int:
    """+1 higher-is-better, -1 lower-is-better, 0 neutral.

    When fragments of both directions match, the longest one wins.
    """
    best_len, best_dir = 0, 0
    lowered = name.lower()
    for fragment in _HIGHER_BETTER:
        if fragment in lowered and len(fragment) > best_len:
            best_len, best_dir = len(fragment), 1
    for fragment in _LOWER_BETTER:
        if lowered.endswith(fragment) or f"{fragment}." in lowered \
                or f"{fragment}_" in lowered:
            if len(fragment) > best_len:
                best_len, best_dir = len(fragment), -1
    return best_dir


def metric_rtol(name: str, default: float = DEFAULT_RTOL) -> float:
    """Noise-aware relative tolerance for ``name``."""
    lowered = name.lower()
    for fragment in _NOISY:
        if lowered.endswith(fragment) or f"{fragment}." in lowered:
            return NOISY_RTOL
    return default


@dataclass(frozen=True)
class MetricDelta:
    """One metric's movement between the two sides."""

    name: str
    before: float
    after: float
    direction: int  #: +1 higher-better / -1 lower-better / 0 neutral
    rtol: float

    @property
    def rel_change(self) -> float:
        if self.before == 0:
            return float("inf") if self.after != 0 else 0.0
        return (self.after - self.before) / abs(self.before)

    @property
    def classification(self) -> str:
        """``regression`` / ``improvement`` / ``unchanged`` /
        ``changed`` (neutral direction, beyond tolerance)."""
        rel = self.rel_change
        if abs(rel) <= self.rtol:
            return "unchanged"
        if self.direction == 0:
            return "changed"
        good = rel > 0 if self.direction > 0 else rel < 0
        return "improvement" if good else "regression"

    def describe(self) -> str:
        arrow = "+" if self.rel_change >= 0 else ""
        return (f"{self.name}: {self.before:.6g} -> {self.after:.6g} "
                f"({arrow}{self.rel_change:.1%}, tol "
                f"{self.rtol:.0%})")


@dataclass
class RegressionReport:
    """Everything ``repro compare`` found."""

    before: str
    after: str
    regressions: List[MetricDelta] = field(default_factory=list)
    improvements: List[MetricDelta] = field(default_factory=list)
    changed: List[MetricDelta] = field(default_factory=list)
    unchanged: int = 0
    added: List[str] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)
    new_findings: List[str] = field(default_factory=list)
    resolved_findings: List[str] = field(default_factory=list)
    verdict_changes: List[str] = field(default_factory=list)

    @property
    def has_regressions(self) -> bool:
        return bool(self.regressions or self.new_findings)

    def exit_code(self, fail_on_regression: bool) -> int:
        return 1 if fail_on_regression and self.has_regressions else 0


# -- source loading -----------------------------------------------------------


def _snapshot_metrics(snapshot: Dict[str, dict]) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    for name, entry in snapshot.items():
        kind = entry.get("type")
        if kind in ("counter", "gauge"):
            value = entry.get("value")
            if isinstance(value, (int, float)) \
                    and not isinstance(value, bool):
                metrics[name] = float(value)
        elif kind == "histogram":
            for stat in ("count", "mean"):
                value = entry.get(stat)
                if isinstance(value, (int, float)) \
                        and not isinstance(value, bool):
                    metrics[f"{name}.{stat}"] = float(value)
    return metrics


def _load_telemetry_dir(directory: Path) -> Tuple[Dict[str, float],
                                                  Dict[str, set],
                                                  Dict[str, str]]:
    """Latest run per experiment -> (metrics, findings, verdicts).

    Metric names are prefixed ``<experiment>.`` so two experiments'
    identically-named gauges don't collide; findings are
    ``(experiment, detector, kind)`` keys.
    """
    latest: Dict[str, Path] = {}
    for path in sorted(directory.glob("*.jsonl"),
                       key=lambda p: p.stat().st_mtime):
        try:
            events = read_events(path)
        except (OSError, json.JSONDecodeError):
            continue
        if not events or events[0].get("type") != "run_start":
            continue
        experiment = events[0].get("experiment", path.stem)
        latest[experiment] = path  # mtime-sorted: last wins
    metrics: Dict[str, float] = {}
    findings: Dict[str, set] = {}
    verdicts: Dict[str, str] = {}
    for experiment, path in latest.items():
        events = read_events(path)
        keys = set()
        for event in events:
            event_type = event.get("type")
            if event_type == "metrics":
                for name, value in _snapshot_metrics(
                        event.get("snapshot", {})).items():
                    metrics[f"{experiment}.{name}"] = value
            elif event_type == "health":
                if event.get("detector") == "health.verdict":
                    verdicts[experiment] = event.get("verdict",
                                                     "unknown")
                else:
                    keys.add((event.get("detector"),
                              event.get("kind", "-")))
            elif event_type == "run_end":
                wall = event.get("wall_s")
                if isinstance(wall, (int, float)):
                    metrics[f"{experiment}.run.wall_s"] = float(wall)
        findings[experiment] = keys
    return metrics, findings, verdicts


def load_source(source: Union[str, Path]) -> Tuple[Dict[str, float],
                                                   Dict[str, set],
                                                   Dict[str, str]]:
    """Load a compare side from a telemetry directory.

    Returns ``(metrics, findings_per_experiment,
    verdict_per_experiment)``.
    """
    path = Path(source)
    if path.is_dir():
        return _load_telemetry_dir(path)
    if path.exists():
        raise NotADirectoryError(
            f"{source} is not a directory: repro compare needs a "
            f"telemetry directory (written by 'repro run --telemetry "
            f"DIR')")
    raise FileNotFoundError(f"no such telemetry directory: {source}")


# -- comparison ---------------------------------------------------------------


def compare(before: Union[str, Path], after: Union[str, Path],
            rtol: Optional[float] = None,
            default_rtol: float = DEFAULT_RTOL) -> RegressionReport:
    """Diff two sources into a :class:`RegressionReport`.

    ``rtol`` forces one tolerance for every metric; the default lets
    :func:`metric_rtol` pick per metric (wide for timing noise, tight
    for counts).
    """
    metrics_a, findings_a, verdicts_a = load_source(before)
    metrics_b, findings_b, verdicts_b = load_source(after)
    report = RegressionReport(before=str(before), after=str(after))

    report.added = sorted(set(metrics_b) - set(metrics_a))
    report.removed = sorted(set(metrics_a) - set(metrics_b))
    for name in sorted(set(metrics_a) & set(metrics_b)):
        delta = MetricDelta(
            name=name, before=metrics_a[name], after=metrics_b[name],
            direction=metric_direction(name),
            rtol=rtol if rtol is not None
            else metric_rtol(name, default_rtol))
        bucket = delta.classification
        if bucket == "regression":
            report.regressions.append(delta)
        elif bucket == "improvement":
            report.improvements.append(delta)
        elif bucket == "changed":
            report.changed.append(delta)
        else:
            report.unchanged += 1

    for experiment in sorted(set(findings_a) | set(findings_b)):
        before_keys = findings_a.get(experiment, set())
        after_keys = findings_b.get(experiment, set())
        for detector, kind in sorted(after_keys - before_keys):
            report.new_findings.append(
                f"{experiment}: {detector}/{kind}")
        for detector, kind in sorted(before_keys - after_keys):
            report.resolved_findings.append(
                f"{experiment}: {detector}/{kind}")
    for experiment in sorted(set(verdicts_a) & set(verdicts_b)):
        old, new = verdicts_a[experiment], verdicts_b[experiment]
        if old != new:
            report.verdict_changes.append(
                f"{experiment}: {old} -> {new}")
    return report


def render_report(report: RegressionReport) -> str:
    """Human-readable compare output."""
    lines = [f"== repro compare ==",
             f"before: {report.before}",
             f"after:  {report.after}", ""]
    if report.regressions:
        lines.append(f"REGRESSIONS ({len(report.regressions)}):")
        lines += [f"  - {d.describe()}" for d in report.regressions]
        lines.append("")
    if report.new_findings:
        lines.append(f"NEW HEALTH FINDINGS "
                     f"({len(report.new_findings)}):")
        lines += [f"  - {text}" for text in report.new_findings]
        lines.append("")
    if report.verdict_changes:
        lines.append("VERDICT CHANGES:")
        lines += [f"  - {text}" for text in report.verdict_changes]
        lines.append("")
    if report.improvements:
        lines.append(f"improvements ({len(report.improvements)}):")
        lines += [f"  + {d.describe()}" for d in report.improvements]
        lines.append("")
    if report.resolved_findings:
        lines.append(f"resolved health findings "
                     f"({len(report.resolved_findings)}):")
        lines += [f"  + {text}" for text in report.resolved_findings]
        lines.append("")
    if report.changed:
        lines.append(f"changed (no good/bad direction, "
                     f"{len(report.changed)}):")
        lines += [f"  ~ {d.describe()}" for d in report.changed]
        lines.append("")
    if report.added:
        lines.append(f"added metrics: {len(report.added)}")
    if report.removed:
        lines.append(f"removed metrics ({len(report.removed)}):")
        lines += [f"  {name}" for name in report.removed]
    lines.append(f"unchanged within tolerance: {report.unchanged}")
    lines.append("")
    if report.has_regressions:
        lines.append("RESULT: regressions detected")
    else:
        lines.append("RESULT: no regressions")
    return "\n".join(lines)
