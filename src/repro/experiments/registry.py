"""Registry mapping experiment ids to their run/report entry points.

Lets the benchmark harness and the examples enumerate everything the
reproduction covers::

    from repro.experiments.registry import EXPERIMENTS
    result = EXPERIMENTS["fig04"].run()
    print(EXPERIMENTS["fig04"].report(result))

Every registered ``run`` uniformly accepts ``workers=`` and ``cache=``
(see :mod:`repro.perf`): experiments whose grids fan out use them,
and the rest silently ignore them, so callers (the CLI, the bench
harness) never need per-experiment special cases.

Every run also accepts ``telemetry=`` -- a
:class:`~repro.obs.telemetry.Telemetry` bundle or a directory path.
When given, the run executes inside ``telemetry.activate()``: the
bundle's metrics registry becomes the process-wide active one (so the
engine, DDE integrator, sweep runner and result cache publish into
it), spans and warnings stream into the run's JSONL log, and the
final metric snapshot is exported on completion.  ``telemetry=None``
(the default) leaves the inert null registry installed and costs
nothing.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from typing import Callable, Dict

from repro.experiments import (ablations,
                               ext_burst_mitigation,
                               ext_convergence_time,
                               ext_dctcp_baseline,
                               ext_fault_resilience,
                               ext_feedback_priority,
                               ext_incast_pfc,
                               ext_latency_cdf,
                               ext_leaf_spine,
                               ext_longflow_fairness,
                               ext_noise_decorrelation,
                               ext_parking_lot,
                               ext_pi_switch_sim,
                               ext_stability_map,
                               fig02_dcqcn_validation,
                               fig03_dcqcn_phase_margin,
                               fig04_dcqcn_delay_impact,
                               fig05_dcqcn_sim_instability,
                               fig08_timely_validation,
                               fig09_timely_unfairness,
                               fig10_burst_pacing,
                               fig11_patched_phase_margin,
                               fig12_patched_timely,
                               fig15_fct_cdf,
                               fig17_ingress_marking,
                               fig18_dcqcn_pi,
                               fig19_timely_pi,
                               fig20_jitter,
                               fct_study)


#: Keyword arguments every registered ``run`` accepts uniformly.
#: ``resilience`` (a :class:`~repro.perf.resilience.ResiliencePolicy`)
#: rides along with the perf kwargs: sweep-backed experiments thread
#: it into their :class:`~repro.perf.SweepRunner` for timeouts,
#: retries, quarantine and ``--resume`` journaling; the rest drop it.
PERF_KWARGS = ("workers", "cache", "resilience")

#: Uniform observability kwarg, handled by the registry wrapper
#: itself (experiments never see it).
TELEMETRY_KWARG = "telemetry"


def _accepts_keyword(fn: Callable, name: str) -> bool:
    """Whether calling ``fn(..., name=...)`` could succeed."""
    try:
        parameters = inspect.signature(fn).parameters
    except (TypeError, ValueError):  # builtins, odd callables
        return True
    for parameter in parameters.values():
        if parameter.kind == parameter.VAR_KEYWORD:
            return True
        if parameter.name == name and parameter.kind in (
                parameter.POSITIONAL_OR_KEYWORD,
                parameter.KEYWORD_ONLY):
            return True
    return False


def _uniform_run(fn: Callable[..., object]) -> Callable[..., object]:
    """Wrap ``fn`` so ``workers=``/``cache=`` are always accepted.

    Experiments with parallel/cached sweeps receive them; the rest
    (single simulations, closed-form computations) have them dropped.
    """
    unsupported = tuple(name for name in PERF_KWARGS
                        if not _accepts_keyword(fn, name))
    if not unsupported:
        return fn

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        for name in unsupported:
            kwargs.pop(name, None)
        return fn(*args, **kwargs)
    return wrapper


def _telemetry_run(fn: Callable[..., object],
                   experiment_id: str) -> Callable[..., object]:
    """Wrap ``fn`` to honour the uniform ``telemetry=`` kwarg.

    ``telemetry`` may be a :class:`~repro.obs.telemetry.Telemetry`
    bundle, a directory path (a bundle is created there), or None
    (the default -- zero overhead, no wrapping work beyond one
    ``pop``).  The remaining kwargs are recorded as the run's
    parameters in the run log, keyed by the same content hash the
    result cache uses.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        telemetry = kwargs.pop(TELEMETRY_KWARG, None)
        if telemetry is None:
            return fn(*args, **kwargs)
        from repro.obs.telemetry import Telemetry
        bundle = Telemetry.ensure(telemetry, experiment=experiment_id)
        from repro.obs import forensics as _forensics
        if _forensics.requested() and bundle.forensics is None:
            bundle.forensics = _forensics.FlowLedger()
        params = {key: value for key, value in kwargs.items()
                  if key not in PERF_KWARGS}
        with bundle.activate(params=params):
            return fn(*args, **kwargs)
    return wrapper


@dataclass(frozen=True)
class Experiment:
    """One reproducible paper artefact."""

    experiment_id: str
    description: str
    run: Callable[..., object]
    report: Callable[[object], str]

    def __post_init__(self):
        object.__setattr__(
            self, "run",
            _telemetry_run(_uniform_run(self.run), self.experiment_id))


def _fig03_run(**kwargs):
    return fig03_dcqcn_phase_margin.panel_a(**kwargs)


def _fig03_report(sweeps):
    return fig03_dcqcn_phase_margin.report(
        sweeps, "Fig. 3(a) -- DCQCN phase margin vs N and delay")


def _fig12_run(workers=None, cache=None, resilience=None, **kwargs):
    # The flow sweep is a handful of short fluid integrations; it
    # stays serial, so the uniform perf kwargs are accepted and
    # ignored here.
    del workers, cache, resilience
    return [fig12_patched_timely.run_asymmetric()] \
        + fig12_patched_timely.run_flow_sweep(**kwargs)


def _fig14_run(**kwargs):
    return fct_study.run_load_sweep(**kwargs)


def _fig16_run(workers=None, cache=None, resilience=None, **kwargs):
    from repro.perf import SweepRunner
    runner = SweepRunner(workers=workers, cache=cache,
                         experiment_id="fig16",
                         resilience=resilience)
    cells = [{"protocol": protocol, "load": 0.8, **kwargs}
             for protocol in fct_study.STUDY_PROTOCOLS]
    return runner.map(fct_study.run_protocol, cells)


EXPERIMENTS: Dict[str, Experiment] = {
    exp.experiment_id: exp for exp in [
        Experiment("fig02", "DCQCN fluid vs packet simulation",
                   fig02_dcqcn_validation.run,
                   fig02_dcqcn_validation.report),
        Experiment("fig03", "DCQCN phase margin sweeps",
                   _fig03_run, _fig03_report),
        Experiment("fig04", "delay/flow impact on DCQCN stability",
                   fig04_dcqcn_delay_impact.run,
                   fig04_dcqcn_delay_impact.report),
        Experiment("fig05", "packet-level DCQCN instability",
                   fig05_dcqcn_sim_instability.run,
                   fig05_dcqcn_sim_instability.report),
        Experiment("fig08", "TIMELY fluid vs packet simulation",
                   fig08_timely_validation.run,
                   fig08_timely_validation.report),
        Experiment("fig09", "TIMELY unfairness vs initial conditions",
                   fig09_timely_unfairness.run,
                   fig09_timely_unfairness.report),
        Experiment("fig10", "per-burst pacing effects",
                   fig10_burst_pacing.run, fig10_burst_pacing.report),
        Experiment("fig11", "patched TIMELY phase margin vs N",
                   fig11_patched_phase_margin.run,
                   fig11_patched_phase_margin.report),
        Experiment("fig12", "patched TIMELY convergence/stability",
                   _fig12_run, fig12_patched_timely.report),
        Experiment("fig14", "small-flow FCT vs load",
                   _fig14_run, fct_study.report_fct_vs_load),
        Experiment("fig15", "FCT CDF at load 0.8",
                   fig15_fct_cdf.run, fig15_fct_cdf.report),
        Experiment("fig16", "bottleneck queue at load 0.8",
                   _fig16_run, fct_study.report_queue_stats),
        Experiment("fig17", "egress vs ingress marking",
                   fig17_ingress_marking.run,
                   fig17_ingress_marking.report),
        Experiment("fig18", "DCQCN + PI controller",
                   fig18_dcqcn_pi.run, fig18_dcqcn_pi.report),
        Experiment("fig19", "patched TIMELY + host PI controller",
                   fig19_timely_pi.run, fig19_timely_pi.report),
        Experiment("fig20", "feedback jitter resilience",
                   fig20_jitter.run, fig20_jitter.report),
        # -- beyond the paper: its Section 7 future work + ablations --
        Experiment("ext_parking_lot",
                   "multi-bottleneck parking lot (future work)",
                   ext_parking_lot.run, ext_parking_lot.report),
        Experiment("ext_incast_pfc",
                   "incast with finite buffers and PFC (future work)",
                   ext_incast_pfc.run, ext_incast_pfc.report),
        Experiment("ext_pi_sim",
                   "packet-level DCQCN + PI marker (future work)",
                   ext_pi_switch_sim.run, ext_pi_switch_sim.report),
        Experiment("ext_burst_mitigation",
                   "sub-line-rate bursts vs the 64KB incast",
                   ext_burst_mitigation.run,
                   ext_burst_mitigation.report),
        Experiment("ext_dctcp",
                   "DCQCN vs the window-based DCTCP baseline",
                   ext_dctcp_baseline.run, ext_dctcp_baseline.report),
        Experiment("ext_leaf_spine",
                   "DCQCN on a leaf-spine fabric (future work)",
                   ext_leaf_spine.run, ext_leaf_spine.report),
        Experiment("ext_faults",
                   "CNP loss + link flaps: fault resilience sweep",
                   ext_fault_resilience.run, ext_fault_resilience.report),
        Experiment("ext_feedback_priority",
                   "prioritizing feedback packets (Section 5.2)",
                   ext_feedback_priority.run,
                   ext_feedback_priority.report),
        Experiment("ext_convergence",
                   "re-convergence time after a flow joins",
                   ext_convergence_time.run,
                   ext_convergence_time.report),
        Experiment("ext_stability_map",
                   "full DCQCN (N, delay) stability map",
                   ext_stability_map.run, ext_stability_map.report),
        Experiment("ext_noise",
                   "burst-noise de-correlation conjecture (fluid)",
                   ext_noise_decorrelation.run,
                   ext_noise_decorrelation.report),
        Experiment("ext_latency",
                   "per-packet latency CDF under the 5.1 workload",
                   ext_latency_cdf.run, ext_latency_cdf.report),
        Experiment("ext_longflow",
                   "long-flow fairness under short-flow churn",
                   ext_longflow_fairness.run,
                   ext_longflow_fairness.report),
        Experiment("abl_cnp_timer", "ablation: DCQCN CNP timer",
                   ablations.cnp_timer, ablations.report_cnp_timer),
        Experiment("abl_ewma_gain", "ablation: DCQCN EWMA gain g",
                   ablations.ewma_gain, ablations.report_ewma_gain),
        Experiment("abl_weight", "ablation: Eq. 30 weight ramp width",
                   ablations.weight_halfwidth,
                   ablations.report_weight_halfwidth),
        Experiment("abl_gradient_clamp",
                   "ablation: TIMELY gradient clamp",
                   ablations.gradient_clamp,
                   ablations.report_gradient_clamp),
    ]
}
