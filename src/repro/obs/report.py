"""Text dashboard rendered from a run log.

``python -m repro report <run.jsonl>`` validates the log and prints:

* a run header (id, experiment, params hash, seed, status, wall),
* the span tree (flame-style aggregation of every recorded span),
* top counters/gauges by magnitude,
* quantile tables for every histogram,
* the per-flow FCT breakdown when the run was made with
  ``--forensics`` (completion-time CDF plus the component-share
  distribution across flows), and
* any warnings and fault events the run recorded.

Everything is derived from the JSONL alone -- the dashboard works on
logs copied off another machine or from a crashed run (a truncated
log still renders; it just fails validation).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.analysis.reporting import format_table
from repro.obs.metrics import top_metrics
from repro.obs.runlog import read_events
from repro.obs.spans import format_span_tree


def _header(events: List[dict]) -> str:
    start = next((e for e in events if e["type"] == "run_start"), {})
    end = next((e for e in reversed(events)
                if e["type"] == "run_end"), {})
    lines = [f"run         {start.get('run_id', '?')}",
             f"experiment  {start.get('experiment', '?')}",
             f"params      {str(start.get('params_hash', '?'))[:16]}"]
    if start.get("seed") is not None:
        lines.append(f"seed        {start['seed']}")
    status = end.get("status", "(no run_end -- truncated?)")
    lines.append(f"status      {status}")
    if end.get("error"):
        lines.append(f"error       {end['error']}")
    if end.get("wall_s") is not None:
        lines.append(f"wall        {end['wall_s']:.3f}s")
    return "\n".join(lines)


def _metrics_sections(snapshot: Dict[str, dict]) -> List[str]:
    sections = []
    scalars = top_metrics(snapshot, limit=25)
    if scalars:
        sections.append(format_table(
            ["metric", "type", "value"],
            [[name, data["type"], data["value"]]
             for name, data in scalars],
            title="top metrics"))
    histograms = [(name, data) for name, data in snapshot.items()
                  if data.get("type") == "histogram"
                  and data.get("count")]
    if histograms:
        quantile_keys: List[str] = sorted(
            {q for _, data in histograms
             for q in data.get("quantiles", {})},
            key=float)
        headers = (["histogram", "count", "mean", "min"]
                   + [f"p{q}" for q in quantile_keys] + ["max"])
        rows = []
        for name, data in histograms:
            quantiles = data.get("quantiles", {})
            rows.append([name, data["count"], data["mean"],
                         data["min"]]
                        + [quantiles.get(q) for q in quantile_keys]
                        + [data["max"]])
        sections.append(format_table(headers, rows,
                                     title="histogram quantiles"))
    return sections


#: Quantile grid for the forensics CDF tables.
_FLOW_QUANTILES = (0.0, 0.5, 0.9, 0.99, 1.0)


def _quantile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank quantile of an already-sorted list."""
    index = min(int(q * (len(sorted_values) - 1) + 0.5),
                len(sorted_values) - 1)
    return sorted_values[index]


def _forensics_section(flows: List[dict]) -> Optional[str]:
    """FCT CDF + component-share distribution over ``flow`` events."""
    from repro.obs.forensics import COMPONENTS
    done = [e for e in flows if e.get("fct_s") is not None
            and e.get("fct_s") > 0]
    if not done:
        return (f"flow forensics\n  {len(flows)} flow(s) recorded, "
                "none completed")
    headers = ["", "mean"] + [f"p{int(q * 100)}"
                              for q in _FLOW_QUANTILES]
    fcts = sorted(e["fct_s"] for e in done)
    rows = [["fct_ms", sum(fcts) / len(fcts) * 1e3]
            + [_quantile(fcts, q) * 1e3 for q in _FLOW_QUANTILES]]
    for key in COMPONENTS:
        shares = sorted(e["components"].get(key, 0.0) / e["fct_s"]
                        for e in done)
        rows.append([f"{key[:-2]}_share",
                     sum(shares) / len(shares)]
                    + [_quantile(shares, q) for q in _FLOW_QUANTILES])
    incomplete = len(flows) - len(done)
    title = (f"flow forensics -- {len(done)} completed flow(s)"
             + (f", {incomplete} incomplete" if incomplete else "")
             + " (explain with 'python -m repro explain')")
    return format_table(headers, rows, title=title)


def render_events(events: List[dict]) -> str:
    """Render the dashboard for already-parsed run-log events."""
    sections = [_header(events)]

    span_events = [e for e in events if e["type"] == "span"]
    if span_events:
        sections.append("spans\n" + format_span_tree(span_events))

    snapshot: Optional[Dict[str, dict]] = None
    for event in reversed(events):
        if event["type"] == "metrics":
            snapshot = event["snapshot"]
            break
    if snapshot:
        sections.extend(_metrics_sections(snapshot))

    flows = [e for e in events if e["type"] == "flow"]
    if flows:
        forensics = _forensics_section(flows)
        if forensics:
            sections.append(forensics)

    warnings = [e for e in events if e["type"] == "warning"]
    if warnings:
        sections.append("warnings\n" + "\n".join(
            f"  - {w['message']}" for w in warnings))
    faults = [e for e in events if e["type"] == "fault"]
    if faults:
        sections.append("fault events\n" + "\n".join(
            "  - {event}{port}".format(
                event=f["event"],
                port=f" port={f['port']}" if "port" in f else "")
            for f in faults))
    return "\n\n".join(sections)


def render_report(path: Union[str, Path]) -> str:
    """Load one run log and render its dashboard."""
    return render_events(read_events(path))
