"""Metric snapshot exporters: Prometheus text format and CSV.

Both exporters consume the JSON-ready form
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot` produces (also
embedded in run logs as ``metrics`` events), so a snapshot can be
re-exported later from the run log alone.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Dict, Union


def _prom_name(name: str) -> str:
    """Dotted hierarchy -> Prometheus underscore convention."""
    return name.replace(".", "_")


def _prom_value(value) -> str:
    if value is None:
        return "NaN"
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


def to_prometheus(snapshot: "Dict[str, dict]") -> str:
    """Render a snapshot in the Prometheus text exposition format.

    Counters and gauges map directly; histograms are exposed in the
    summary style -- ``name{quantile="0.9"}`` series plus ``_count``
    and ``_sum`` -- since P-squared tracks quantiles, not buckets.
    """
    lines = []
    for name, data in snapshot.items():
        kind = data.get("type")
        metric = _prom_name(name)
        if kind in ("counter", "gauge"):
            lines.append(f"# TYPE {metric} {kind}")
            lines.append(f"{metric} {_prom_value(data['value'])}")
        elif kind == "histogram":
            lines.append(f"# TYPE {metric} summary")
            for q, value in sorted(data.get("quantiles", {}).items(),
                                   key=lambda kv: float(kv[0])):
                lines.append(f'{metric}{{quantile="{q}"}} '
                             f"{_prom_value(value)}")
            lines.append(f"{metric}_count {data['count']}")
            lines.append(f"{metric}_sum {_prom_value(data['sum'])}")
    return "\n".join(lines) + ("\n" if lines else "")


def to_csv(snapshot: "Dict[str, dict]") -> str:
    """Flatten a snapshot to ``metric,type,field,value`` rows."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["metric", "type", "field", "value"])
    for name, data in snapshot.items():
        kind = data.get("type")
        if kind in ("counter", "gauge"):
            writer.writerow([name, kind, "value", data["value"]])
        elif kind == "histogram":
            for field in ("count", "sum", "min", "max", "mean"):
                writer.writerow([name, kind, field, data[field]])
            for q, value in sorted(data.get("quantiles", {}).items(),
                                   key=lambda kv: float(kv[0])):
                writer.writerow([name, kind, f"p{q}", value])
    return buffer.getvalue()


def write_exports(snapshot: "Dict[str, dict]",
                  base_path: Union[str, Path]) -> "list[Path]":
    """Write ``<base>.prom`` and ``<base>.metrics.csv``; return paths."""
    base = Path(base_path)
    base.parent.mkdir(parents=True, exist_ok=True)
    prom = base.with_suffix(".prom")
    prom.write_text(to_prometheus(snapshot), encoding="utf-8")
    csv_path = base.with_suffix(".metrics.csv")
    csv_path.write_text(to_csv(snapshot), encoding="utf-8")
    return [prom, csv_path]
