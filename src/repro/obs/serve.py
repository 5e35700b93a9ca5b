"""The live fleet observability plane behind ``python -m repro serve``.

A stdlib :class:`~http.server.ThreadingHTTPServer` that sits *next
to* a queue directory (see :mod:`repro.perf.backend`) and/or a
telemetry directory of run-log shards, and aggregates whatever the
fleet is doing right now.  It holds no state of its own: every
request re-reads the same atomically-written files the queue
protocol already maintains, so the server can be started, killed and
restarted at any point of a sweep without coordination.

Endpoints
---------

``/metrics``
    Prometheus text exposition merging every live source: the
    serving process's own registry, the per-worker registry
    snapshots workers piggyback onto their heartbeat registrations
    (``workers/<id>.json``), and the latest ``metrics`` event of
    each run-log shard.  Counters are folded into one fleet-wide
    sum plus per-source ``{worker="..."}`` series; gauges and
    histograms stay per-source (a merged quantile would be a lie).
    Snapshots from registrations older than the worker TTL are
    dropped -- a dead worker's last gauge readings are not "live".
``/events`` and ``/events.json``
    The merged run-log event stream.  ``/events.json?offset=N``
    long-polls incrementally (the JSON body carries the next
    offset); ``/events`` is a Server-Sent-Events stream of the same
    events (``id:`` = stream offset, ``data:`` = the event JSON).
    Per-shard order is the writer's ``seq`` order; shards interleave
    by arrival.
``/fleet``
    Queue-level fleet state as JSON: worker registrations with
    liveness ages, queued/claimed/parked counts, per-claim lease
    ages and steal counts, and quarantined (``worker-lost``)
    results.
``/trace``
    The stitched cross-host trace tree (see
    :func:`repro.obs.spans.build_fleet_tree`) as plain text.

``python -m repro watch --serve URL`` consumes ``/events.json``, so
a dashboard can follow a sweep on a host that does not mount the
queue filesystem at all.
"""

from __future__ import annotations

import json
import os
import socketserver
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs, urlparse

from repro.obs import metrics as _metrics
from repro.obs import spans as _spans
from repro.obs.export import (_prom_name, _prom_value,
                              prometheus_lines)
from repro.obs.live import RunLogTailer

#: Default seconds before a worker registration (and its piggybacked
#: metrics snapshot) is considered stale.  Deliberately looser than
#: the queue's lease TTL: a scrape plane should keep showing a
#: briefly-stalled worker rather than flap.
DEFAULT_WORKER_TTL = 30.0

#: SSE keepalive / long-poll cadence, seconds.
DEFAULT_POLL_S = 0.5


def _read_json(path: Path) -> Optional[dict]:
    """Best-effort read (the queue's skip-don't-crash discipline)."""
    try:
        with open(path, "r", encoding="utf-8") as stream:
            return json.load(stream)
    except (OSError, json.JSONDecodeError):
        return None


def _mtime_age(path: Path, now: Optional[float] = None
               ) -> Optional[float]:
    try:
        mtime = path.stat().st_mtime
    except OSError:
        return None
    return (now if now is not None else time.time()) - mtime


class FleetAggregator:
    """Read-side aggregation over a queue dir and/or telemetry dir.

    Parameters
    ----------
    root:
        Convenience: a directory that is a queue dir (has a
        ``workers/`` subdirectory), a telemetry dir (holds ``.jsonl``
        run logs), or both at once.  ``queue_dir``/``telemetry_dir``
        override the auto-detection when the two live apart.
    worker_ttl:
        Seconds before a worker registration stops counting as live.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None,
                 queue_dir: Optional[Union[str, Path]] = None,
                 telemetry_dir: Optional[Union[str, Path]] = None,
                 worker_ttl: float = DEFAULT_WORKER_TTL):
        if root is None and queue_dir is None \
                and telemetry_dir is None:
            raise ValueError("FleetAggregator needs a root, "
                             "queue_dir or telemetry_dir")
        root = Path(root) if root is not None else None
        self._root = root
        self._queue_dir = Path(queue_dir) if queue_dir is not None \
            else None
        if telemetry_dir is not None:
            self.telemetry_dir: Optional[Path] = Path(telemetry_dir)
        else:
            self.telemetry_dir = root
        self.worker_ttl = float(worker_ttl)
        self._lock = threading.Lock()
        self._tailers: Dict[Path, RunLogTailer] = {}
        self._shard_experiment: Dict[Path, str] = {}
        self._events: List[dict] = []

    @property
    def queue_dir(self) -> Optional[Path]:
        """The explicit ``queue_dir``, else ``root`` once it holds a
        ``workers/`` subdirectory.  Detected on every access, so a
        plane started before the first worker registers still picks
        the fleet up."""
        if self._queue_dir is not None:
            return self._queue_dir
        if self._root is not None and (self._root / "workers").is_dir():
            return self._root
        return None

    # -- worker registrations ---------------------------------------------

    def _registrations(self) -> List[Tuple[str, float, dict]]:
        """(worker id, heartbeat age, payload) for every file in
        ``workers/``, live or not -- callers filter by age."""
        found: List[Tuple[str, float, dict]] = []
        if self.queue_dir is None:
            return found
        workers = self.queue_dir / "workers"
        try:
            names = sorted(os.listdir(workers))
        except OSError:
            return found
        now = time.time()
        for name in names:
            if not name.endswith(".json"):
                continue
            path = workers / name
            age = _mtime_age(path, now)
            payload = _read_json(path)
            if age is None or payload is None:
                continue
            found.append((name[:-5], age, payload))
        return found

    # -- /metrics ----------------------------------------------------------

    def metrics_sources(self) -> "Dict[str, Dict[str, dict]]":
        """Source label -> registry snapshot, live sources only."""
        sources: Dict[str, Dict[str, dict]] = {}
        local = _metrics.get_registry().snapshot()
        if local:
            sources["coordinator"] = local
        for worker_id, age, payload in self._registrations():
            if age >= self.worker_ttl:
                continue  # stale snapshot: worker presumed dead
            snapshot = payload.get("metrics")
            if isinstance(snapshot, dict) and snapshot:
                sources[worker_id] = snapshot
        for shard, snapshot in self._runlog_snapshots().items():
            sources.setdefault(f"run:{shard}", snapshot)
        return sources

    def _runlog_snapshots(self) -> "Dict[str, Dict[str, dict]]":
        """Latest ``metrics`` event per run-log shard, by stem."""
        latest: Dict[str, Dict[str, dict]] = {}
        self.refresh_events()
        with self._lock:
            events = list(self._events)
        for event in events:
            if event.get("type") != "metrics":
                continue
            snapshot = event.get("snapshot")
            if isinstance(snapshot, dict) and snapshot:
                latest[event.get("_shard", "?")] = snapshot
        return latest

    def metrics_text(self) -> str:
        """The merged Prometheus exposition for every live source."""
        sources = self.metrics_sources()
        union: Dict[str, List[Tuple[str, dict]]] = {}
        for source in sorted(sources):
            for name, data in sources[source].items():
                if data.get("type") not in ("counter", "gauge",
                                            "histogram"):
                    continue
                union.setdefault(name, []).append(
                    (source, data))
        lines: List[str] = []
        for name in sorted(union):
            entries = union[name]
            kind = entries[0][1]["type"]
            metric = _prom_name(name)
            if kind == "counter":
                lines.append(f"# TYPE {metric} counter")
                total = sum(float(data.get("value") or 0.0)
                            for _, data in entries
                            if data.get("type") == "counter")
                lines.append(f"{metric} {_prom_value(total)}")
            else:
                prom_kind = "gauge" if kind == "gauge" else "summary"
                lines.append(f"# TYPE {metric} {prom_kind}")
            for source, data in entries:
                if data.get("type") != kind:
                    continue  # cross-source type clash: skip
                lines.extend(prometheus_lines(
                    {name: data}, labels={"worker": source},
                    type_lines=False))
        return "\n".join(lines) + ("\n" if lines else "")

    # -- /events -----------------------------------------------------------

    def refresh_events(self) -> int:
        """Tail every run-log shard; returns the merged length."""
        with self._lock:
            for path in self._shard_paths():
                tailer = self._tailers.get(path)
                if tailer is None:
                    tailer = RunLogTailer(path)
                    self._tailers[path] = tailer
                for event in tailer.poll():
                    if not isinstance(event, dict):
                        continue
                    if event.get("type") == "run_start":
                        self._shard_experiment[path] = \
                            event.get("experiment", "")
                    event = dict(event)
                    event["_shard"] = path.stem
                    event["_experiment"] = \
                        self._shard_experiment.get(path, "")
                    self._events.append(event)
            return len(self._events)

    def _shard_paths(self) -> List[Path]:
        paths: List[Path] = []
        roots = [self.telemetry_dir]
        if self.queue_dir is not None \
                and self.queue_dir != self.telemetry_dir:
            roots.append(self.queue_dir)
        for root in roots:
            if root is None:
                continue
            try:
                names = sorted(os.listdir(root))
            except OSError:
                continue
            paths.extend(root / name for name in names
                         if name.endswith(".jsonl"))
        return paths

    def events_since(self, offset: int,
                     experiment: Optional[str] = None
                     ) -> Tuple[int, List[dict]]:
        """(next offset, events) after ``offset`` in merged order.

        Offsets index the *unfiltered* merged stream, so a filtered
        consumer can still resume exactly where it left off.
        """
        self.refresh_events()
        with self._lock:
            total = len(self._events)
            window = self._events[max(0, int(offset)):total]
        if experiment:
            window = [event for event in window
                      if event.get("_experiment") == experiment
                      or event.get("experiment") == experiment]
        return total, window

    # -- /fleet ------------------------------------------------------------

    def fleet(self) -> dict:
        """Queue-level fleet state as one JSON-ready dict."""
        now = time.time()
        workers = []
        for worker_id, age, payload in self._registrations():
            workers.append({
                "worker": worker_id,
                "live": age < self.worker_ttl,
                "heartbeat_age_s": round(age, 3),
                "pid": payload.get("pid"),
                "host": payload.get("host"),
                "beats": payload.get("beats"),
                "fingerprint": (payload.get("fingerprint")
                                or "")[:12]})
        state: Dict[str, Any] = {
            "generated_ts": now,
            "queue_dir": (str(self.queue_dir)
                          if self.queue_dir else None),
            "telemetry_dir": (str(self.telemetry_dir)
                              if self.telemetry_dir else None),
            "workers": workers,
            "workers_live": sum(1 for w in workers if w["live"])}
        if self.queue_dir is not None:
            state.update(self._queue_state(now))
        return state

    def _queue_state(self, now: float) -> dict:
        layout = {name: Path(self.queue_dir) / name  # type: ignore
                  for name in ("tasks", "claims", "results")}
        claims = []
        steals = 0
        try:
            names = sorted(os.listdir(layout["claims"]))
        except OSError:
            names = []
        for name in names:
            if not name.endswith(".json"):
                continue
            path = layout["claims"] / name
            payload = _read_json(path) or {}
            age = _mtime_age(path, now)
            steals += int(payload.get("steals", 0) or 0)
            claims.append({"key": name[:-5],
                           "worker": payload.get("worker"),
                           "lease_age_s": (round(age, 3)
                                           if age is not None
                                           else None),
                           "steals": payload.get("steals", 0)})
        quarantined = 0
        results = 0
        try:
            result_names = os.listdir(layout["results"])
        except OSError:
            result_names = []
        for name in result_names:
            if not name.endswith(".json"):
                continue
            results += 1
            payload = _read_json(layout["results"] / name) or {}
            if not payload.get("ok", True) \
                    and payload.get("kind") == "worker-lost":
                quarantined += 1
        try:
            queued = sum(1 for name in os.listdir(layout["tasks"])
                         if name.endswith(".json"))
        except OSError:
            queued = 0
        for name in (os.listdir(layout["tasks"])
                     if layout["tasks"].is_dir() else []):
            if name.endswith(".json"):
                payload = _read_json(layout["tasks"] / name) or {}
                steals += int(payload.get("steals", 0) or 0)
        return {"tasks_queued": queued, "claims": claims,
                "results_parked": results, "steals": steals,
                "quarantined": quarantined}

    # -- /trace ------------------------------------------------------------

    def trace_text(self, trace_id: Optional[str] = None) -> str:
        root = self.queue_dir or self.telemetry_dir
        records = _spans.read_trace_records(root)
        chosen, tree = _spans.build_fleet_tree(records, trace_id)
        if not tree:
            return "(no fleet trace recorded)\n"
        header = f"fleet trace {chosen}\n"
        return header + _spans.format_span_tree(tree) + "\n"


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the server's :class:`FleetAggregator`."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    @property
    def aggregator(self) -> FleetAggregator:
        return self.server.aggregator  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        pass  # quiet by default; errors surface client-side

    def _send_body(self, body: str, content_type: str,
                   status: int = 200) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type",
                         f"{content_type}; charset=utf-8")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parsed = urlparse(self.path)
        query = {key: values[-1] for key, values
                 in parse_qs(parsed.query).items()}
        try:
            self._route(parsed.path, query)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-stream; nothing to clean up

    def _route(self, path: str, query: Dict[str, str]) -> None:
        if path in ("/", "/index.html"):
            self._send_body(
                "repro observability plane\n"
                "endpoints: /metrics /events /events.json "
                "/fleet /trace /healthz\n", "text/plain")
        elif path == "/healthz":
            self._send_body("ok\n", "text/plain")
        elif path == "/metrics":
            self._send_body(self.aggregator.metrics_text(),
                            "text/plain")
        elif path == "/fleet":
            self._send_body(
                json.dumps(self.aggregator.fleet(), indent=2,
                           sort_keys=True, default=str) + "\n",
                "application/json")
        elif path == "/trace":
            self._send_body(
                self.aggregator.trace_text(query.get("trace_id")),
                "text/plain")
        elif path == "/events.json":
            offset, events = self.aggregator.events_since(
                int(query.get("offset", 0)),
                experiment=query.get("experiment"))
            self._send_body(
                json.dumps({"offset": offset, "events": events},
                           default=str) + "\n",
                "application/json")
        elif path == "/events":
            self._stream_events(query)
        else:
            self._send_body(f"unknown path {path}\n",
                            "text/plain", status=404)

    def _stream_events(self, query: Dict[str, str]) -> None:
        """Server-Sent-Events stream of the merged run-log events."""
        max_events = int(query.get("max", 0)) or None
        poll_s = float(query.get("poll", DEFAULT_POLL_S))
        experiment = query.get("experiment")
        offset = int(query.get("offset", 0))
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        # SSE is unbounded: hand the socket over to chunked-free
        # streaming by dropping keep-alive.
        self.send_header("Connection", "close")
        self.end_headers()
        sent = 0
        while True:
            offset, events = self.aggregator.events_since(
                offset, experiment=experiment)
            for index, event in enumerate(events):
                self.wfile.write(
                    f"id: {offset - len(events) + index}\n"
                    f"data: {json.dumps(event, default=str)}\n\n"
                    .encode("utf-8"))
                sent += 1
                if max_events is not None and sent >= max_events:
                    self.wfile.flush()
                    return
            if not events:
                self.wfile.write(b": keepalive\n\n")
            self.wfile.flush()
            time.sleep(poll_s)


class ObservabilityServer:
    """Owns the HTTP server + aggregator pair; test- and CLI-facing.

    ``port=0`` binds an ephemeral port (the default for tests);
    :attr:`url` reports the bound address either way.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None,
                 queue_dir: Optional[Union[str, Path]] = None,
                 telemetry_dir: Optional[Union[str, Path]] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 worker_ttl: float = DEFAULT_WORKER_TTL):
        self.aggregator = FleetAggregator(
            root, queue_dir=queue_dir, telemetry_dir=telemetry_dir,
            worker_ttl=worker_ttl)

        class _Server(socketserver.ThreadingMixIn, HTTPServer):
            daemon_threads = True
            allow_reuse_address = True

        self._httpd = _Server((host, port), _Handler)
        self._httpd.aggregator = self.aggregator  # type: ignore
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ObservabilityServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-serve", daemon=True)
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Foreground service loop (the CLI path); Ctrl-C returns."""
        try:
            self._httpd.serve_forever()
        except KeyboardInterrupt:
            pass

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ObservabilityServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
