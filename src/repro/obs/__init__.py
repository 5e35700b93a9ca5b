"""Unified telemetry: metrics registry, run logs, span profiling.

The observability layer every serving stack grows eventually, scoped
to this reproduction's three execution engines (the packet simulator,
the DDE fluid integrator, and the parallel sweep runner):

:mod:`repro.obs.metrics`
    A hierarchical registry of counters, gauges and streaming
    histograms (P-squared quantile estimation -- no sample storage).
    A process-global *active registry* defaults to a no-op
    :class:`~repro.obs.metrics.NullRegistry`, so instrumented hot
    paths cost nothing unless a run explicitly turns telemetry on.

:mod:`repro.obs.runlog`
    A structured JSONL event stream per experiment run -- run id,
    parameter hash, spans, warnings, fault events, metric snapshots --
    so any run is reconstructable after the fact, plus the schema
    validator the CI smoke job uses.

:mod:`repro.obs.spans`
    Context-manager profiling spans (wall time, CPU time, allocation
    deltas when tracemalloc is tracing) nested experiment ->
    sweep-cell -> integration, aggregated into a flame-style text
    tree.

:mod:`repro.obs.telemetry`
    The :class:`~repro.obs.telemetry.Telemetry` bundle tying the three
    together: ``activate()`` installs the registry, span recorder and
    health session, streams the run log, and exports Prometheus-text
    and CSV metric snapshots on exit.  Every experiment in
    :mod:`repro.experiments.registry` accepts ``telemetry=``, and the
    CLI exposes ``--telemetry DIR`` and ``python -m repro report``.

:mod:`repro.obs.health`
    The live health layer: streaming pathology detectors (queue limit
    cycles vs. the Thm. 1 fixed point, TIMELY unfairness drift, PFC
    pause storms / deadlock precursors, stalled convergence) fed by
    periodic in-run snapshots, emitting ``health`` events into the
    run log and a final per-run verdict.

:mod:`repro.obs.live`
    ``python -m repro watch``: tail a live run log (tolerant of the
    truncated final line an in-flight writer leaves) into a
    refreshing TTY dashboard.

:mod:`repro.obs.diff`
    ``python -m repro compare``: cross-run regression diffing over
    telemetry directories, with noise-aware thresholds and
    new/resolved health findings.

:mod:`repro.obs.profile`
    Sampling profiler for the engine hot loops: a sidecar thread
    attributes wall time to port/protocol/engine/fluid frames
    with zero per-event cost in the profiled thread.

:mod:`repro.obs.forensics`
    Per-flow causal FCT attribution: a
    :class:`~repro.obs.forensics.FlowLedger` folds cheap sim hooks
    into one record per flow, decomposing each completion time into
    serialization / queueing / PFC pause / rate-limited components
    with causal annotations; ``python -m repro run --forensics``
    records ``flow`` events and ``python -m repro explain`` renders
    them.
"""

from repro.obs.health import (Detector, HealthFinding, HealthMonitor,
                              HealthSession, PauseStormDetector,
                              QueueOscillationDetector,
                              StalledConvergenceDetector,
                              UnfairnessDriftDetector,
                              attach_packet_health, current_session,
                              set_session, use_session, verdict_for)
from repro.obs.forensics import (FlowLedger, active_ledger,
                                 attach_flow_forensics, render_explain,
                                 render_flow, set_ledger, use_ledger)
from repro.obs.metrics import (MetricsRegistry, NullRegistry,
                               NULL_REGISTRY, get_registry,
                               sanitize, set_registry, use_registry)
from repro.obs.profile import (SamplingProfiler, profiled,
                               publish_engine_rates)
from repro.obs.runlog import RunLog, read_events, validate_file
from repro.obs.scrape import scrape_network, scrape_port
from repro.obs.spans import SpanRecorder, format_span_tree, span
from repro.obs.telemetry import Telemetry, current

__all__ = [
    "MetricsRegistry", "NullRegistry", "NULL_REGISTRY",
    "get_registry", "set_registry", "use_registry", "sanitize",
    "RunLog", "read_events", "validate_file",
    "scrape_network", "scrape_port",
    "SpanRecorder", "format_span_tree", "span",
    "SamplingProfiler", "profiled", "publish_engine_rates",
    "Telemetry", "current",
    "Detector", "HealthFinding", "HealthMonitor", "HealthSession",
    "QueueOscillationDetector", "UnfairnessDriftDetector",
    "PauseStormDetector", "StalledConvergenceDetector",
    "attach_packet_health", "current_session", "set_session",
    "use_session", "verdict_for",
    "FlowLedger", "active_ledger", "attach_flow_forensics",
    "render_explain", "render_flow", "set_ledger", "use_ledger",
]
