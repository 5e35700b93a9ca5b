"""In-run pathology detectors -- the live health layer.

The paper's headline results are *pathologies*: DCQCN's queue falls
into a limit cycle once the feedback delay grows (Thm. 2 / Fig. 5),
TIMELY's infinite fixed-point family lets flow rates drift to
arbitrary unfairness (Thm. 4 / Fig. 9), and incast on a lossless
fabric degenerates into PFC pause storms.  The telemetry layer (PR 3)
records what happened; this module *recognizes* those signatures
while a run executes, in the spirit of online stability monitors from
the control-theoretic AQM literature (Ariba et al.; Reynier's RED
stability condition): every pathology leaves a fingerprint in
observable queue/rate statistics, so a streaming detector fed by
periodic snapshots can flag it without storing the full trace.

Architecture, mirroring the active-registry pattern of
:mod:`repro.obs.metrics`:

* :class:`Detector` subclasses consume periodic snapshots
  (``sample(t, signals)``) and yield :class:`HealthFinding` records,
  streaming where the signature allows it and at ``finish()``
  otherwise.
* :class:`HealthMonitor` drives a set of detectors over one
  simulation or integration, deduplicates findings, and forwards
  them to the active session.
* :class:`HealthSession` is the per-run collector
  :class:`~repro.obs.telemetry.Telemetry` installs: findings become
  schema-validated ``health`` events in the run log the moment they
  fire (a live ``repro watch`` shows them), and the session's
  :meth:`~HealthSession.verdict` -- ``clean`` / ``warning`` /
  ``pathological`` -- is stamped into the log as the final
  ``health.verdict`` event.

Zero-cost rule: experiments attach monitors **only when a session is
active** (:func:`current_session` is None while telemetry is off), so
the packet event loop and the DDE stepping loop never see a detector
unless the user asked for one.  An attached detector costs one
heap event per sample (:meth:`~repro.sim.engine.Simulator.sample_every`),
not one per packet; the e2ebench ``fig05_observed`` workload times
that case end to end.

Snapshot signal names (all optional; detectors skip missing ones):

``queue``
    Bottleneck queue depth (bytes for packet sims, packets for fluid
    models -- detectors are scale-free or take ``q_star`` in the same
    unit).
``rates``
    Per-flow sending rates, any common unit.
``pfc_pauses``
    Cumulative PAUSE frames sent by the switch under watch.
``pfc_longest_pause_s``
    Age of the oldest still-asserted PAUSE
    (:meth:`repro.sim.pfc.PFCController.longest_active_pause`).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.analysis.oscillation import dominant_oscillation
from repro.obs import metrics as _metrics

#: Finding severities, mildest first; the run verdict is derived from
#: the worst finding.
SEVERITIES = ("info", "warning", "critical")

#: Verdicts a run can earn.
VERDICTS = ("clean", "warning", "pathological")

_SEVERITY_RANK = {severity: rank
                  for rank, severity in enumerate(SEVERITIES)}


@dataclass(frozen=True)
class HealthFinding:
    """One detector firing (also the shape of a run-log health event)."""

    detector: str           #: detector name, e.g. ``queue_oscillation``
    kind: str               #: specific signature within the detector
    severity: str           #: one of :data:`SEVERITIES`
    message: str            #: human-readable one-liner
    sim_time_s: Optional[float] = None  #: sim clock when it fired
    context: str = ""       #: cell/scenario label, e.g. ``N=10``
    paper_ref: str = ""     #: the result this signature reproduces
    data: Dict[str, float] = field(default_factory=dict)

    def as_event_fields(self) -> dict:
        """Payload for :meth:`repro.obs.runlog.RunLog.health`."""
        fields = {"detector": self.detector, "kind": self.kind,
                  "severity": self.severity, "message": self.message,
                  "data": dict(self.data)}
        if self.sim_time_s is not None:
            fields["sim_time_s"] = self.sim_time_s
        if self.context:
            fields["context"] = self.context
        if self.paper_ref:
            fields["paper_ref"] = self.paper_ref
        return fields


def _jain(rates: np.ndarray) -> float:
    """Jain's index without the input policing of the shared helper
    (streaming samples legitimately hit the all-zero start)."""
    total = float(np.sum(rates))
    if total <= 0.0:
        return float("nan")
    return total ** 2 / (rates.size * float(np.sum(rates ** 2)))


class Detector:
    """Base streaming detector.

    ``sample`` is called once per periodic snapshot and may return
    findings that can be decided online; ``finish`` is called once
    when the run ends and returns whatever needs the full horizon
    (tail windows, settle checks).  Detectors must be deterministic:
    same snapshot series, same findings.
    """

    name = "detector"
    paper_ref = ""

    def sample(self, t: float,
               signals: dict) -> Optional[List[HealthFinding]]:
        return None

    def finish(self) -> List[HealthFinding]:
        return []

    def reset(self) -> None:
        """Drop buffered samples (halved-step retry re-feeds us)."""

    def _finding(self, kind: str, severity: str, message: str,
                 t: Optional[float] = None,
                 **data: float) -> HealthFinding:
        return HealthFinding(detector=self.name, kind=kind,
                             severity=severity, message=message,
                             sim_time_s=t, paper_ref=self.paper_ref,
                             data={key: float(value)
                                   for key, value in data.items()})


class SeriesDetector(Detector):
    """Shared buffering for detectors over a sampled time series."""

    def __init__(self):
        self._times: List[float] = []

    def reset(self) -> None:
        self._times.clear()

    def _rewind_guard(self, t: float) -> None:
        """Reset on time going backwards (integration retry)."""
        if self._times and t < self._times[-1]:
            self.reset()

    def _window_slice(self, times: np.ndarray,
                      window: float) -> np.ndarray:
        return times >= times[-1] - window


class QueueOscillationDetector(SeriesDetector):
    """Queue limit cycle vs. the fluid fixed point (Thm. 2 / Fig. 5).

    Watches the ``queue`` signal.  Two signatures:

    * ``limit_cycle`` (critical): over the trailing ``window`` the
      queue's coefficient of variation exceeds ``cov_threshold`` AND
      the detrended spectrum concentrates more than
      ``power_threshold`` of its power in one line
      (:func:`repro.analysis.oscillation.dominant_oscillation`) --
      the same criterion the paper's Fig. 5 analysis applies, which
      separates a genuine limit cycle from wideband packet noise.
      Checked every ``check_interval`` of sim time, so it fires
      *during* the run, close to where the oscillation sets in.
    * ``fixed_point_deviation`` (warning, at finish): the tail-window
      mean sits more than ``q_star_rtol`` away from the Thm. 1 fixed
      point ``q_star`` supplied by the caller (same unit as the
      samples).
    """

    name = "queue_oscillation"
    paper_ref = "Thm. 2 / Fig. 5"

    def __init__(self, window: float,
                 q_star: Optional[float] = None,
                 cov_threshold: float = 0.15,
                 power_threshold: float = 0.25,
                 q_star_rtol: float = 0.5,
                 check_interval: Optional[float] = None,
                 min_samples: int = 64):
        super().__init__()
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self.q_star = q_star
        self.cov_threshold = cov_threshold
        self.power_threshold = power_threshold
        self.q_star_rtol = q_star_rtol
        self.check_interval = check_interval
        self.min_samples = min_samples
        self._values: List[float] = []
        self._next_check = -np.inf
        self._fired_cycle = False

    def reset(self) -> None:
        super().reset()
        self._values.clear()
        self._next_check = -np.inf
        self._fired_cycle = False

    def sample(self, t: float,
               signals: dict) -> Optional[List[HealthFinding]]:
        queue = signals.get("queue")
        if queue is None:
            return None
        self._rewind_guard(t)
        self._times.append(t)
        self._values.append(float(queue))
        if (self.check_interval is None or self._fired_cycle
                or t < self._next_check
                or len(self._times) < self.min_samples):
            return None
        self._next_check = t + self.check_interval
        return self._check_cycle(t)

    def _tail(self) -> "tuple[np.ndarray, np.ndarray]":
        times = np.asarray(self._times)
        values = np.asarray(self._values)
        mask = self._window_slice(times, self.window)
        return times[mask], values[mask]

    def _check_cycle(self, t: float) -> List[HealthFinding]:
        # Never judge the start-up transient: wait until the trailing
        # window no longer overlaps the first window of samples, so
        # the initial ramp-and-settle of a perfectly stable system
        # (large CoV, ring-down spectrum) is not judged at all.
        if self._times[-1] - self._times[0] < 2 * self.window:
            return []
        times, values = self._tail()
        if times.size < self.min_samples:
            return []
        mean = float(np.mean(values))
        std = float(np.std(values))
        cov = std / mean if mean > 0 else (np.inf if std > 0 else 0.0)
        if cov <= self.cov_threshold:
            return []
        try:
            est = dominant_oscillation(times, values)
        except ValueError:
            return []  # too few / non-uniform samples in the window
        if not (est.frequency_hz > 0
                and est.power_fraction > self.power_threshold):
            return []
        self._fired_cycle = True
        return [self._finding(
            "limit_cycle", "critical",
            f"queue limit cycle: CoV {cov:.2f} over the last "
            f"{self.window * 1e3:.1f} ms, dominant line at "
            f"{est.frequency_hz / 1e3:.1f} kHz carrying "
            f"{est.power_fraction:.0%} of the power",
            t=t, cov=cov, frequency_hz=est.frequency_hz,
            power_fraction=est.power_fraction,
            amplitude=est.amplitude, queue_mean=mean)]

    def finish(self) -> List[HealthFinding]:
        if len(self._times) < self.min_samples:
            return []
        findings = [] if self._fired_cycle else \
            self._check_cycle(self._times[-1])
        if self.q_star and self.q_star > 0:
            _, values = self._tail()
            mean = float(np.mean(values))
            deviation = abs(mean - self.q_star) / self.q_star
            if deviation > self.q_star_rtol:
                findings.append(self._finding(
                    "fixed_point_deviation", "warning",
                    f"tail queue mean {mean:.3g} sits "
                    f"{deviation:.0%} from the Thm. 1 fixed point "
                    f"{self.q_star:.3g}",
                    t=self._times[-1], queue_mean=mean,
                    q_star=self.q_star, deviation=deviation))
        return findings


class UnfairnessDriftDetector(SeriesDetector):
    """Rate divergence / Jain-index trend (Thm. 4 / Fig. 9).

    Watches the ``rates`` signal.  TIMELY's fixed points form a
    continuum, so nothing pulls per-flow rates back together; the
    Jain index either settles visibly below 1 (scenario-dependent
    operating point) or keeps degrading.  Signatures:

    * ``persistent_unfairness`` (critical, at finish): tail-window
      mean Jain index below ``jain_critical``.
    * ``fairness_drift`` (warning, at finish): the index fell by more
      than ``drift_warning`` between the opening and closing windows
      without crossing the critical line -- the slow leak that
      precedes it on longer horizons.
    """

    name = "unfairness_drift"
    paper_ref = "Thm. 4 / Fig. 9"

    def __init__(self, window: float,
                 jain_critical: float = 0.9,
                 drift_warning: float = 0.05):
        super().__init__()
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self.jain_critical = jain_critical
        self.drift_warning = drift_warning
        self._jain: List[float] = []
        self._last_rates: Optional[np.ndarray] = None

    def reset(self) -> None:
        super().reset()
        self._jain.clear()
        self._last_rates = None

    def sample(self, t: float,
               signals: dict) -> Optional[List[HealthFinding]]:
        rates = signals.get("rates")
        if rates is None:
            return None
        self._rewind_guard(t)
        rates = np.asarray(rates, dtype=float)
        if rates.size < 2:
            return None
        index = _jain(rates)
        if index != index:  # all-zero start: nothing to judge yet
            return None
        self._times.append(t)
        self._jain.append(index)
        self._last_rates = rates
        return None

    def finish(self) -> List[HealthFinding]:
        if len(self._times) < 4:
            return []
        times = np.asarray(self._times)
        jain = np.asarray(self._jain)
        tail = jain[self._window_slice(times, self.window)]
        tail_mean = float(np.mean(tail))
        t_end = float(times[-1])
        if tail_mean < self.jain_critical:
            rates_text = "/".join(
                f"{rate:.3g}" for rate in self._last_rates) \
                if self._last_rates is not None else "?"
            return [self._finding(
                "persistent_unfairness", "critical",
                f"Jain index {tail_mean:.3f} < {self.jain_critical} "
                f"over the final window (rates {rates_text}): the "
                "flows settled on an unfair operating point",
                t=t_end, jain=tail_mean)]
        head = jain[times <= times[0] + self.window]
        drop = float(np.mean(head)) - tail_mean
        if drop > self.drift_warning:
            return [self._finding(
                "fairness_drift", "warning",
                f"Jain index drifted down by {drop:.3f} "
                f"({np.mean(head):.3f} -> {tail_mean:.3f}) over the "
                "run", t=t_end, jain=tail_mean, drop=drop)]
        return []


class PauseStormDetector(SeriesDetector):
    """PFC pause storms and deadlock precursors (Section 7 / incast).

    Watches ``pfc_pauses`` (cumulative PAUSE frames) and
    ``pfc_longest_pause_s`` (age of the oldest asserted PAUSE).
    Signatures, both streaming:

    * ``pause_storm`` (warning): PAUSE emission rate over the
      trailing ``window`` exceeds ``pause_rate_threshold`` per
      second -- congestion is being pushed into upstreams faster
      than end-to-end control drains it.
    * ``sustained_pause`` (critical): one PAUSE stayed asserted
      longer than ``sustained_pause_s`` -- the buffer behind it is
      not draining, the precondition for pause propagation trees and
      PFC deadlock.
    """

    name = "pfc_pause_storm"
    paper_ref = "Sec. 2.1 / Sec. 7 (PFC)"

    def __init__(self, window: float,
                 pause_rate_threshold: float = 2000.0,
                 sustained_pause_s: float = 2e-3):
        super().__init__()
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self.pause_rate_threshold = pause_rate_threshold
        self.sustained_pause_s = sustained_pause_s
        self._pauses: List[float] = []
        self._fired: set = set()

    def reset(self) -> None:
        super().reset()
        self._pauses.clear()
        self._fired.clear()

    def sample(self, t: float,
               signals: dict) -> Optional[List[HealthFinding]]:
        pauses = signals.get("pfc_pauses")
        if pauses is None:
            return None
        self._rewind_guard(t)
        self._times.append(t)
        self._pauses.append(float(pauses))
        findings = []
        if "storm" not in self._fired and len(self._times) >= 2:
            times = np.asarray(self._times)
            mask = self._window_slice(times, self.window)
            span = times[-1] - times[mask][0]
            if span > 0:
                first = int(np.argmax(mask))
                rate = (self._pauses[-1] - self._pauses[first]) / span
                if rate > self.pause_rate_threshold:
                    self._fired.add("storm")
                    findings.append(self._finding(
                        "pause_storm", "warning",
                        f"PFC pause storm: {rate:.0f} PAUSE/s over "
                        f"the last {span * 1e3:.1f} ms",
                        t=t, pause_rate=rate,
                        pauses_total=self._pauses[-1]))
        longest = signals.get("pfc_longest_pause_s")
        if longest is not None and "sustained" not in self._fired \
                and longest > self.sustained_pause_s:
            self._fired.add("sustained")
            findings.append(self._finding(
                "sustained_pause", "critical",
                f"PAUSE asserted for {longest * 1e3:.2f} ms "
                f"(> {self.sustained_pause_s * 1e3:.2f} ms): "
                "downstream buffer is not draining (deadlock "
                "precursor)", t=t, longest_pause_s=longest))
        return findings or None


class StalledConvergenceDetector(SeriesDetector):
    """Run ended before the rates settled (convergence stall).

    Watches ``rates``.  Compares the per-flow means of the last two
    ``window``-long segments: if any flow's mean still moved by more
    than ``settle_rtol`` (relative), the system was still in
    transient -- either the horizon is too short or the control loop
    never converges (the re-convergence pathology of Section 4.4).
    Oscillation is *not* flagged here (window means of a limit cycle
    agree); that is :class:`QueueOscillationDetector`'s job.
    """

    name = "stalled_convergence"
    paper_ref = "Sec. 4.4 (convergence)"

    def __init__(self, window: float, settle_rtol: float = 0.05):
        super().__init__()
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self.settle_rtol = settle_rtol
        self._rates: List[np.ndarray] = []

    def reset(self) -> None:
        super().reset()
        self._rates.clear()

    def sample(self, t: float,
               signals: dict) -> Optional[List[HealthFinding]]:
        rates = signals.get("rates")
        if rates is None:
            return None
        self._rewind_guard(t)
        self._times.append(t)
        self._rates.append(np.asarray(rates, dtype=float).copy())
        return None

    def finish(self) -> List[HealthFinding]:
        if len(self._times) < 8:
            return []
        times = np.asarray(self._times)
        rates = np.asarray(self._rates)
        t_end = times[-1]
        last = rates[times >= t_end - self.window]
        prev = rates[(times >= t_end - 2 * self.window)
                     & (times < t_end - self.window)]
        if last.size == 0 or prev.size == 0:
            return []
        last_mean = np.mean(last, axis=0)
        prev_mean = np.mean(prev, axis=0)
        scale = np.maximum(np.abs(last_mean), 1e-12)
        drift = np.abs(last_mean - prev_mean) / scale
        worst = float(np.max(drift))
        if worst <= self.settle_rtol:
            return []
        flow = int(np.argmax(drift))
        return [self._finding(
            "not_settled", "warning",
            f"flow {flow} still moving at run end: window-mean rate "
            f"changed {worst:.0%} between the last two "
            f"{self.window * 1e3:.1f} ms windows",
            t=float(t_end), worst_drift=worst, flow=flow)]


class HealthMonitor:
    """Drives detectors over one simulation/integration.

    Forwards every new finding to ``session`` (default: the active
    one) the moment it fires, deduplicating per ``(detector, kind)``
    so a persistent pathology produces one event, not thousands.
    ``context`` labels the findings with the cell/scenario that
    produced them.  ``checkpoint_every`` > 0 additionally asks the
    session to stamp a metrics snapshot into the run log every that
    many samples, giving a live ``watch`` fresh gauges mid-run.
    """

    def __init__(self, detectors: Sequence[Detector],
                 context: str = "",
                 session: Optional["HealthSession"] = None,
                 checkpoint_every: int = 0):
        self.detectors = list(detectors)
        self.context = context
        self.session = session if session is not None \
            else current_session()
        self.checkpoint_every = checkpoint_every
        self.findings: List[HealthFinding] = []
        self._fired: set = set()
        self._samples = 0
        self._finalized = False

    def sample(self, t: float, **signals) -> None:
        """Feed one periodic snapshot to every detector."""
        for detector in self.detectors:
            findings = detector.sample(t, signals)
            if findings:
                for finding in findings:
                    self._record(finding)
        self._samples += 1
        if self.checkpoint_every and self.session is not None \
                and self._samples % self.checkpoint_every == 0:
            self.session.checkpoint()

    def observe_state(self, queue_index: int = 0,
                      rate_slice: Optional[slice] = None):
        """Adapter for :func:`repro.core.fluid.dde.integrate`'s
        ``observer=``: maps a raw state vector onto the ``queue`` /
        ``rates`` signals."""
        def observer(t: float, state: np.ndarray) -> None:
            self.sample(
                t, queue=float(state[queue_index]),
                rates=state[rate_slice]
                if rate_slice is not None else None)
        return observer

    def _record(self, finding: HealthFinding) -> None:
        key = (finding.detector, finding.kind)
        if key in self._fired:
            return
        self._fired.add(key)
        if self.context and not finding.context:
            finding = replace(finding, context=self.context)
        self.findings.append(finding)
        if self.session is not None:
            self.session.add(finding)

    def finalize(self) -> List[HealthFinding]:
        """Collect end-of-run findings; idempotent."""
        if not self._finalized:
            self._finalized = True
            for detector in self.detectors:
                for finding in detector.finish():
                    self._record(finding)
        return self.findings

    @property
    def verdict(self) -> str:
        """Verdict over this monitor's findings alone."""
        return verdict_for(self.findings)


def attach_packet_health(net, detectors: Sequence[Detector],
                         interval: float,
                         context: str = "",
                         stop: Optional[float] = None,
                         checkpoint_every: int = 0,
                         session: Optional["HealthSession"] = None,
                         ) -> Optional[HealthMonitor]:
    """Attach streaming detectors to a built packet-sim topology.

    Samples -- via the engine's :meth:`~repro.sim.engine.Simulator
    .sample_every` hook -- the bottleneck queue depth, every
    installed sender's current rate, and (when a switch carries a
    PFC controller) the cumulative PAUSE count and oldest-pause age.
    Returns None without touching the simulation when no health
    session is active, which is what keeps detectors zero-cost while
    telemetry is off; call ``finalize()`` on the returned monitor
    after ``sim.run``.
    """
    if session is None:
        session = current_session()
    if session is None:
        return None
    monitor = HealthMonitor(detectors, context=context,
                            session=session,
                            checkpoint_every=checkpoint_every)
    pfcs = [switch.pfc for switch in net.switches.values()
            if getattr(switch, "pfc", None) is not None]

    def sample(now: float) -> None:
        signals: dict = {
            "queue": net.bottleneck_port.occupancy_bytes}
        if net.senders:
            signals["rates"] = [sender.rate
                                for sender in net.senders.values()]
        if pfcs:
            signals["pfc_pauses"] = sum(pfc.pauses_sent
                                        for pfc in pfcs)
            signals["pfc_longest_pause_s"] = max(
                pfc.longest_active_pause(now) for pfc in pfcs)
        monitor.sample(now, **signals)

    net.sim.sample_every(interval, sample, stop=stop)
    return monitor


class HealthSession:
    """Per-run finding collector, installed by ``Telemetry.activate``.

    Findings stream into the run log as ``health`` events when one is
    attached; :meth:`emit_verdict` stamps the final
    ``health.verdict`` event.  Counters land in the metrics registry
    (``obs.health.findings_total`` and per-severity variants).
    """

    def __init__(self, run_log=None, registry=None):
        self.run_log = run_log
        self.registry = registry
        self.findings: List[HealthFinding] = []
        #: Forensics cross-link: the worst pause-hit flows (as emitted
        #: by :meth:`repro.obs.forensics.FlowLedger.worst_paused`),
        #: set by telemetry finalization before :meth:`emit_verdict`
        #: so a non-clean verdict can name its victims.
        self.flow_context: Optional[List[dict]] = None

    def add(self, finding: HealthFinding) -> None:
        self.findings.append(finding)
        registry = self.registry if self.registry is not None \
            else _metrics.get_registry()
        registry.counter("obs.health.findings_total").inc()
        registry.counter(
            f"obs.health.findings_{finding.severity}_total").inc()
        if self.run_log is not None:
            try:
                self.run_log.health(**finding.as_event_fields())
            except ValueError:
                pass  # log already finished/closed

    def checkpoint(self) -> None:
        """Stamp a mid-run metrics snapshot into the run log."""
        if self.run_log is None:
            return
        registry = self.registry if self.registry is not None \
            else _metrics.get_registry()
        try:
            self.run_log.metrics(registry.snapshot())
        except ValueError:
            pass

    def verdict(self) -> str:
        return verdict_for(self.findings)

    def emit_verdict(self) -> str:
        """Write the final ``health.verdict`` event; returns verdict."""
        verdict = self.verdict()
        worst = {"clean": "info", "warning": "warning",
                 "pathological": "critical"}[verdict]
        counts = {severity: sum(
            1 for finding in self.findings
            if finding.severity == severity)
            for severity in SEVERITIES}
        extra = {}
        if self.flow_context and verdict != "clean":
            extra["worst_flows"] = self.flow_context
        if self.run_log is not None:
            try:
                self.run_log.health(
                    detector="health.verdict", severity=worst,
                    message=f"run verdict: {verdict} "
                            f"({len(self.findings)} finding(s))",
                    verdict=verdict, findings=len(self.findings),
                    by_severity=counts, **extra)
            except ValueError:
                pass
        return verdict


def verdict_for(findings: Sequence[HealthFinding]) -> str:
    """``clean`` / ``warning`` / ``pathological`` over findings."""
    worst = -1
    for finding in findings:
        worst = max(worst, _SEVERITY_RANK.get(finding.severity, 1))
    if worst >= _SEVERITY_RANK["critical"]:
        return "pathological"
    if worst >= _SEVERITY_RANK["warning"]:
        return "warning"
    return "clean"


_session: Optional[HealthSession] = None


def current_session() -> Optional[HealthSession]:
    """The active per-run session, or None when health is off."""
    return _session


def set_session(session: Optional[HealthSession]
                ) -> Optional[HealthSession]:
    """Install ``session`` (None disables); returns the previous one."""
    global _session
    previous = _session
    _session = session
    return previous


@contextmanager
def use_session(session: Optional[HealthSession]
                ) -> Iterator[Optional[HealthSession]]:
    """Scoped :func:`set_session`; always restores the previous one."""
    previous = set_session(session)
    try:
        yield session
    finally:
        set_session(previous)
