"""Watch mode: tail a live run log into a refreshing TTY dashboard.

``python -m repro watch obs/`` follows the newest (or a named) run
log while the experiment writes it from another process, showing run
identity, the latest metrics snapshot, health findings as they fire,
sweep failures (quarantined cells, re-dispatches after a lost
worker, timeouts, pool respawns), fault events, the slowest forensics-attributed flows
(``--forensics`` runs), and finally the run verdict.  Three pieces:

:class:`RunLogTailer`
    Incremental JSONL reader.  Remembers its byte offset between
    polls, buffers a partial final line until the writer completes it
    (the live twin of :func:`repro.obs.runlog.read_events`'s
    truncation tolerance), and detects file replacement/truncation
    (a new run reusing the path) by shrinkage, resetting cleanly.

:class:`WatchState`
    Event-fold accumulator: feed it events in order and it maintains
    the latest-known view a dashboard needs.  Pure and synchronous --
    the unit tests drive it without any filesystem.

:func:`render_dashboard`
    ``WatchState`` -> text.  Pure as well; the only impure parts of
    watch mode are the tailer's reads and the redraw loop.

The default experiment loop buffers run-log writes through the OS in
whatever chunks Python flushes; pass ``--telemetry-fsync`` (or
``Telemetry(fsync=True)``) on the writing side for the promptest
tail.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

#: Dashboard redraw / poll cadence, seconds.
DEFAULT_INTERVAL = 0.5

#: How many of the most recent health/fault/warning lines to show.
TAIL_LINES = 8

_SEVERITY_BADGE = {"info": "i", "warning": "!", "critical": "!!"}

#: ``sweep`` events the dashboard counts, with their ``sweep:`` labels.
SWEEP_COUNTS = {"cell_quarantined": "cell(s) quarantined",
                "cell_retry": "retries",
                "cell_timeout": "timeout(s)",
                "pool_respawn": "pool respawn(s)"}


class RunLogTailer:
    """Incrementally read events appended to a JSONL run log.

    Each :meth:`poll` returns the complete events appended since the
    previous poll.  A partial final line (writer mid-``write``) is
    carried in a buffer and completed on a later poll; a file that
    *shrank* means the path was truncated or replaced by a new run,
    so the tailer resets to offset 0 and re-reads from the top.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._offset = 0
        self._buffer = ""

    def poll(self) -> List[dict]:
        try:
            size = self.path.stat().st_size
        except OSError:
            return []  # not created yet (watch started before the run)
        if size < self._offset:
            self._offset = 0
            self._buffer = ""
        if size == self._offset:
            return []
        with open(self.path, "r", encoding="utf-8") as stream:
            stream.seek(self._offset)
            chunk = stream.read()
            self._offset = stream.tell()
        data = self._buffer + chunk
        lines = data.split("\n")
        self._buffer = lines.pop()  # "" after a complete final line
        events = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # torn write; skip rather than kill the watch
        return events


class WatchState:
    """Latest-known view of a run, folded from its events in order."""

    def __init__(self):
        self.run_id: Optional[str] = None
        self.experiment: Optional[str] = None
        self.params_hash: Optional[str] = None
        self.seed = None
        self.started_ts: Optional[float] = None
        self.last_ts: Optional[float] = None
        self.events = 0
        self.metrics: Dict[str, dict] = {}
        self.health: List[dict] = []
        self.verdict: Optional[str] = None
        self.faults: List[dict] = []
        self.warnings: List[dict] = []
        self.status: Optional[str] = None
        self.wall_s: Optional[float] = None
        #: Sweep-runner failure counts, folded from ``sweep`` events.
        self.sweep: Dict[str, int] = dict.fromkeys(SWEEP_COUNTS, 0)
        #: Flow-forensics fold (``--forensics`` runs): totals plus the
        #: slowest completed flows seen so far, worst first.
        self.flows = 0
        self.flows_completed = 0
        self.worst_flows: List[dict] = []

    @property
    def finished(self) -> bool:
        return self.status is not None

    def apply(self, event: dict) -> None:
        """Fold one run-log event into the view."""
        self.events += 1
        self.last_ts = event.get("ts", self.last_ts)
        event_type = event.get("type")
        if event_type == "run_start":
            self.run_id = event.get("run_id")
            self.experiment = event.get("experiment")
            self.params_hash = event.get("params_hash")
            self.seed = event.get("seed")
            self.started_ts = event.get("ts")
        elif event_type == "metrics":
            self.metrics = event.get("snapshot", {})
        elif event_type == "health":
            if event.get("detector") == "health.verdict":
                self.verdict = event.get("verdict")
            else:
                self.health.append(event)
        elif event_type == "fault":
            self.faults.append(event)
        elif event_type == "warning":
            self.warnings.append(event)
        elif event_type == "sweep":
            kind = event.get("event")
            if kind in self.sweep:
                self.sweep[kind] += 1
        elif event_type == "flow":
            self._apply_flow(event)
        elif event_type == "run_end":
            self.status = event.get("status")
            self.wall_s = event.get("wall_s")

    def _apply_flow(self, event: dict) -> None:
        """Fold one forensics ``flow`` event (keeps the worst few)."""
        self.flows += 1
        if not event.get("completed"):
            return
        self.flows_completed += 1
        if event.get("fct_s") is None:
            return
        self.worst_flows.append(event)
        self.worst_flows.sort(key=lambda e: -e["fct_s"])
        del self.worst_flows[TAIL_LINES:]

    def apply_all(self, events: List[dict]) -> None:
        for event in events:
            self.apply(event)


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:,.6g}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def _metric_rows(snapshot: Dict[str, dict],
                 limit: int = 18) -> List[str]:
    """Pick the most dashboard-worthy rows from a metrics snapshot."""
    rows = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        kind = entry.get("type")
        if kind in ("counter", "gauge"):
            rows.append(f"  {name:<44} {_format_value(entry['value'])}")
        elif kind == "histogram" and entry.get("count"):
            quantiles = entry.get("quantiles", {})
            p50 = quantiles.get("p50")
            p99 = quantiles.get("p99")
            detail = f"n={entry['count']}"
            if p50 is not None:
                detail += f" p50={_format_value(p50)}"
            if p99 is not None:
                detail += f" p99={_format_value(p99)}"
            rows.append(f"  {name:<44} {detail}")
    if len(rows) > limit:
        hidden = len(rows) - limit
        rows = rows[:limit] + [f"  ... {hidden} more "
                               f"(python -m repro report for all)"]
    return rows


def render_dashboard(state: WatchState, now: Optional[float] = None,
                     path: Union[str, Path, None] = None) -> str:
    """Render the current view as a text dashboard (pure)."""
    lines: List[str] = []
    title = state.experiment or "(waiting for run_start)"
    lines.append(f"== repro watch :: {title} ==")
    if path is not None:
        lines.append(f"log: {path}")
    if state.run_id:
        identity = f"run {state.run_id}"
        if state.params_hash:
            identity += f"  params {state.params_hash[:12]}"
        if state.seed is not None:
            identity += f"  seed {state.seed}"
        lines.append(identity)
    if state.started_ts and (state.last_ts or now):
        elapsed = (state.last_ts or now) - state.started_ts
        lines.append(f"{state.events} events, {elapsed:.1f}s of run")
    lines.append("")

    if state.verdict is not None or state.health:
        verdict = state.verdict or "(pending)"
        lines.append(f"health: {verdict} -- "
                     f"{len(state.health)} finding(s)")
        for event in state.health[-TAIL_LINES:]:
            badge = _SEVERITY_BADGE.get(event.get("severity"), "?")
            sim_t = event.get("sim_time_s")
            stamp = f" @t={sim_t:.6g}s" if sim_t is not None else ""
            lines.append(f"  [{badge}] {event.get('detector')}/"
                         f"{event.get('kind', '-')}{stamp}: "
                         f"{event.get('message', '')}")
        lines.append("")

    if any(state.sweep.values()):
        lines.append("sweep: " + ", ".join(
            f"{state.sweep[kind]} {label}"
            for kind, label in SWEEP_COUNTS.items()))
        lines.append("")

    if state.metrics:
        lines.append("metrics (latest snapshot):")
        lines.extend(_metric_rows(state.metrics))
        lines.append("")

    if state.flows:
        lines.append(f"flows: {state.flows} attributed, "
                     f"{state.flows_completed} completed "
                     f"(python -m repro explain for detail)")
        for event in state.worst_flows[:4]:
            components = event.get("components", {})
            dominant = max(components, key=components.get) \
                if components else "?"
            where = f" [{event['context']}]" \
                if event.get("context") else ""
            lines.append(f"  flow {event.get('flow_id')}{where}: "
                         f"fct={event['fct_s'] * 1e3:.3f}ms, "
                         f"mostly {dominant.rsplit('_', 1)[0]}")
        lines.append("")

    if state.faults:
        lines.append(f"faults ({len(state.faults)}):")
        envelope = {"run_id", "seq", "ts", "type", "event"}
        for event in state.faults[-TAIL_LINES:]:
            detail = " ".join(f"{key}={value}"
                              for key, value in sorted(event.items())
                              if key not in envelope)
            lines.append(f"  {event.get('event')} {detail}".rstrip())
        lines.append("")

    if state.warnings:
        lines.append(f"warnings ({len(state.warnings)}):")
        for event in state.warnings[-TAIL_LINES:]:
            lines.append(f"  {event.get('message', '')}")
        lines.append("")

    if state.finished:
        wall = f" in {state.wall_s:.2f}s" if state.wall_s is not None \
            else ""
        lines.append(f"run finished: {state.status}{wall}")
        if state.verdict is not None:
            lines.append(f"final verdict: {state.verdict}")
    else:
        lines.append("running... (ctrl-c to stop watching)")
    return "\n".join(lines)


def resolve_target(target: Union[str, Path],
                   experiment: Optional[str] = None) -> Path:
    """Map a watch target onto a run-log path.

    ``target`` may be a ``.jsonl`` file, or a directory -- in which
    case the newest run log inside is picked, optionally filtered to
    those of ``experiment`` (run ids start with the experiment name).
    A directory with no logs yet resolves only if ``experiment`` is
    given (the caller then waits for the file to appear is not
    supported -- we need one concrete path, so this raises instead).
    """
    target = Path(target)
    if target.is_file() or target.suffix == ".jsonl":
        return target
    if not target.is_dir():
        raise FileNotFoundError(f"no such run log or directory: "
                                f"{target}")
    logs = sorted(target.glob("*.jsonl"),
                  key=lambda p: p.stat().st_mtime)
    if experiment is not None:
        logs = [p for p in logs
                if p.name.startswith(f"{experiment}-")]
    if not logs:
        what = f"{experiment} run logs" if experiment else "run logs"
        raise FileNotFoundError(f"no {what} in {target}")
    return logs[-1]


def watch(target: Union[str, Path],
          experiment: Optional[str] = None,
          interval: float = DEFAULT_INTERVAL,
          once: bool = False,
          stream=None,
          clock: Callable[[], float] = time.time,
          sleep: Callable[[float], None] = time.sleep,
          max_polls: Optional[int] = None) -> int:
    """Follow a run log until ``run_end`` (or forever, pre-run).

    ``once`` renders the current state a single time and returns --
    usable in scripts and CI.  ``stream``/``clock``/``sleep``/
    ``max_polls`` exist for deterministic tests.
    """
    if stream is None:
        stream = sys.stdout
    path = resolve_target(target, experiment)
    tailer = RunLogTailer(path)
    state = WatchState()
    live_tty = (not once) and hasattr(stream, "isatty") \
        and stream.isatty()
    polls = 0
    while True:
        state.apply_all(tailer.poll())
        board = render_dashboard(state, now=clock(), path=path)
        if live_tty:
            stream.write("\x1b[2J\x1b[H" + board + "\n")
        else:
            stream.write(board + "\n")
        stream.flush()
        polls += 1
        if once or state.finished:
            break
        if max_polls is not None and polls >= max_polls:
            break
        if not live_tty and not once:
            # Non-TTY continuous mode would spam full dashboards;
            # separate them visibly.
            stream.write("\n")
        try:
            sleep(interval)
        except KeyboardInterrupt:
            break
    return 0
