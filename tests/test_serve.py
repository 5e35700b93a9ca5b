"""The fleet observability plane: ``repro serve`` endpoints, fleet
metric merging, cross-host trace stitching, and the sampling
profiler.

The aggregation layer is exercised both in-process (unit tests on
:class:`FleetAggregator`) and over real HTTP (an
:class:`ObservabilityServer` on an ephemeral port), including the
paper-repro's two headline guarantees: during a live two-worker
queue sweep ``/metrics`` serves the merged fleet counters and
``/fleet`` reports both workers live; and a trace id stamped by the
coordinator survives a SIGKILLed worker, so the stolen cell still
stitches into one tree.
"""

import json
import os
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import (SamplingProfiler, classify_frame,
                               profiled, publish_engine_rates)
from repro.obs.report import render_fleet
from repro.obs.serve import FleetAggregator, ObservabilityServer
from repro.obs.spans import (append_trace_record, build_fleet_tree,
                             new_trace_id, read_trace_records,
                             trace_shard_path)
from repro.obs.telemetry import Telemetry
from repro.perf import (QueueBackend, QueueWorker, SweepRunner,
                        spawn_worker)
from repro.perf.backend import QueueLayout, _atomic_write_json
from repro.perf.sweep import WORKER_ENV

# -- module-level cells (resolvable by name across processes) -----------------


def draw(seed):
    rng = np.random.default_rng(seed)
    return float(rng.random())


def trace_kill_cell(x, flag_dir):
    """x == 2 SIGKILLs its worker process -- once (see
    test_backend.kill_once_cell for the full rationale)."""
    flag = Path(flag_dir) / f"killed-{x}"
    if x == 2 and os.environ.get(WORKER_ENV) and not flag.exists():
        flag.touch()
        import signal
        os.kill(os.getpid(), signal.SIGKILL)
    return x + 1000


@pytest.fixture(autouse=True)
def _restore_worker_env():
    saved = os.environ.get(WORKER_ENV)
    yield
    if saved is None:
        os.environ.pop(WORKER_ENV, None)
    else:
        os.environ[WORKER_ENV] = saved


def run_worker_thread(queue_dir, worker_id="peer", max_idle=8.0,
                      lease_ttl=10.0, poll=0.02):
    worker = QueueWorker(queue_dir, worker_id=worker_id,
                        lease_ttl=lease_ttl, poll_interval=poll)
    thread = threading.Thread(
        target=lambda: worker.run(max_idle=max_idle), daemon=True)
    thread.start()
    return worker, thread


def stop_worker(worker, thread, timeout=15.0):
    worker._stop.set()
    thread.join(timeout=timeout)
    assert not thread.is_alive()


def age_file(path, seconds):
    stat = os.stat(path)
    os.utime(path, (stat.st_atime - seconds,
                    stat.st_mtime - seconds))


def register_worker(queue_dir, worker_id, completed=0,
                    extra_metrics=None):
    """Fabricate a heartbeat registration with a piggybacked
    metrics snapshot, exactly as QueueWorker.heartbeat writes it."""
    layout = QueueLayout(queue_dir).ensure()
    metrics = {"perf.worker.cells_completed":
               {"type": "counter", "value": completed}}
    metrics.update(extra_metrics or {})
    _atomic_write_json(layout.worker_path(worker_id), {
        "worker": worker_id, "pid": 12345, "host": "testhost",
        "beats": 1, "fingerprint": "fp-test", "ts": time.time(),
        "metrics": metrics})
    return layout


def http_get(url, timeout=10.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, response.read().decode("utf-8")


def write_run(directory, experiment="demo", run_id=None, gauges=()):
    telemetry = Telemetry(directory, experiment=experiment,
                          run_id=run_id)
    with telemetry.activate(params={"n": 1}):
        for name, value in gauges:
            telemetry.registry.gauge(name).set(value)
    return telemetry


# -- FleetAggregator (in-process) ---------------------------------------------


class TestFleetAggregator:
    def test_requires_some_root(self):
        with pytest.raises(ValueError, match="root"):
            FleetAggregator()

    def test_root_autodetects_queue_dir(self, tmp_path):
        register_worker(tmp_path, "w1")
        assert FleetAggregator(tmp_path).queue_dir == tmp_path
        bare = tmp_path / "bare"
        bare.mkdir()
        assert FleetAggregator(bare).queue_dir is None

    def test_root_detects_queue_dir_created_later(self, tmp_path):
        """A plane started before any worker registers still merges
        the fleet once the first registration appears."""
        aggregator = FleetAggregator(tmp_path)
        assert aggregator.queue_dir is None
        register_worker(tmp_path, "w1", completed=3)
        assert aggregator.queue_dir == tmp_path
        assert "perf_worker_cells_completed 3.0" in \
            aggregator.metrics_text().splitlines()

    def test_merged_counter_sums_and_labels(self, tmp_path):
        register_worker(tmp_path, "w1", completed=2)
        register_worker(tmp_path, "w2", completed=3)
        text = FleetAggregator(tmp_path).metrics_text()
        lines = text.splitlines()
        # One fleet-wide sum plus one labelled series per worker.
        assert "perf_worker_cells_completed 5.0" in lines
        assert 'perf_worker_cells_completed{worker="w1"} 2.0' \
            in lines
        assert 'perf_worker_cells_completed{worker="w2"} 3.0' \
            in lines
        assert "# TYPE perf_worker_cells_completed counter" in lines

    def test_gauges_stay_per_source(self, tmp_path):
        gauge = {"sim.q": {"type": "gauge", "value": 7.0}}
        register_worker(tmp_path, "w1", extra_metrics=gauge)
        register_worker(tmp_path, "w2", extra_metrics=gauge)
        lines = FleetAggregator(tmp_path).metrics_text().splitlines()
        assert 'sim_q{worker="w1"} 7.0' in lines
        assert 'sim_q{worker="w2"} 7.0' in lines
        # No unlabeled merged gauge: a fleet-summed gauge is a lie.
        assert not any(line.startswith("sim_q ") for line in lines)

    def test_stale_worker_snapshot_expired(self, tmp_path):
        layout = register_worker(tmp_path, "fresh", completed=1)
        register_worker(tmp_path, "stale", completed=9)
        age_file(layout.worker_path("stale"), 3600)
        aggregator = FleetAggregator(tmp_path, worker_ttl=30.0)
        sources = aggregator.metrics_sources()
        assert "fresh" in sources and "stale" not in sources
        # The fleet sum must not include the dead worker's counters.
        assert ("perf_worker_cells_completed 1.0"
                in aggregator.metrics_text().splitlines())
        fleet = aggregator.fleet()
        assert fleet["workers_live"] == 1
        by_id = {w["worker"]: w for w in fleet["workers"]}
        assert by_id["fresh"]["live"] is True
        assert by_id["stale"]["live"] is False

    def test_runlog_shards_are_metric_sources(self, tmp_path):
        write_run(tmp_path, run_id="demo-1",
                  gauges=[("demo.q", 5.0)])
        aggregator = FleetAggregator(telemetry_dir=tmp_path)
        sources = aggregator.metrics_sources()
        assert any(name.startswith("run:") for name in sources)
        assert 'demo_q{worker="run:demo-1"} 5.0' \
            in aggregator.metrics_text().splitlines()

    def test_events_since_resumes_from_offset(self, tmp_path):
        write_run(tmp_path, run_id="demo-1")
        aggregator = FleetAggregator(telemetry_dir=tmp_path)
        total, events = aggregator.events_since(0)
        assert total == len(events) > 0
        assert events[0]["type"] == "run_start"
        again, rest = aggregator.events_since(total)
        assert again == total and rest == []
        write_run(tmp_path, run_id="demo-2")
        grown, fresh = aggregator.events_since(total)
        assert grown > total
        assert all(event["_shard"] == "demo-2" for event in fresh)

    def test_events_experiment_filter(self, tmp_path):
        write_run(tmp_path, experiment="fig04", run_id="fig04-1")
        write_run(tmp_path, experiment="fig05", run_id="fig05-1")
        aggregator = FleetAggregator(telemetry_dir=tmp_path)
        total, events = aggregator.events_since(0,
                                                experiment="fig04")
        assert events and all(
            event["_experiment"] == "fig04" for event in events)
        # The offset still indexes the unfiltered stream.
        assert total > len(events)


# -- HTTP endpoints -----------------------------------------------------------


class TestServeEndpoints:
    def test_healthz_index_and_404(self, tmp_path):
        with ObservabilityServer(telemetry_dir=tmp_path) as server:
            assert http_get(server.url + "/healthz") == (200, "ok\n")
            status, body = http_get(server.url + "/")
            assert status == 200 and "/metrics" in body
            request = urllib.request.Request(server.url + "/nope")
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=10.0)
            assert err.value.code == 404

    def test_metrics_and_fleet_endpoints(self, tmp_path):
        register_worker(tmp_path, "w1", completed=4)
        with ObservabilityServer(tmp_path) as server:
            status, text = http_get(server.url + "/metrics")
            assert status == 200
            assert "perf_worker_cells_completed 4.0" \
                in text.splitlines()
            status, body = http_get(server.url + "/fleet")
            fleet = json.loads(body)
            assert fleet["workers_live"] == 1
            assert fleet["workers"][0]["worker"] == "w1"
            assert fleet["tasks_queued"] == 0

    def test_events_json_longpoll(self, tmp_path):
        write_run(tmp_path, run_id="demo-1")
        with ObservabilityServer(telemetry_dir=tmp_path) as server:
            _, body = http_get(server.url + "/events.json?offset=0")
            payload = json.loads(body)
            offset = payload["offset"]
            assert offset == len(payload["events"]) > 0
            _, body = http_get(
                server.url + f"/events.json?offset={offset}")
            assert json.loads(body)["events"] == []

    def test_sse_stream_ordering(self, tmp_path):
        write_run(tmp_path, run_id="demo-1")
        with ObservabilityServer(telemetry_dir=tmp_path) as server:
            aggregator = server.aggregator
            total, _ = aggregator.events_since(0)
            _, body = http_get(
                server.url + f"/events?max={total}&poll=0.05")
        ids = [int(line.split(":", 1)[1])
               for line in body.splitlines()
               if line.startswith("id:")]
        events = [json.loads(line.split(":", 1)[1])
                  for line in body.splitlines()
                  if line.startswith("data:")]
        assert len(ids) == len(events) == total
        assert ids == sorted(ids) == list(range(total))
        # Per-shard writer order (seq) is preserved end to end.
        seqs = [event["seq"] for event in events
                if "seq" in event]
        assert seqs == sorted(seqs)
        assert events[0]["type"] == "run_start"
        assert events[-1]["type"] == "run_end"

    def test_trace_endpoint(self, tmp_path):
        trace_id = new_trace_id("sweep")
        append_trace_record(trace_shard_path(tmp_path, "coord"), {
            "trace_id": trace_id, "name": "coordinator[sweep]",
            "path": "coordinator[sweep]", "ts": 100.0,
            "wall_s": 1.0, "cpu_s": 0.5})
        with ObservabilityServer(tmp_path / "missing-queue",
                                 telemetry_dir=tmp_path) as server:
            _, text = http_get(server.url + "/trace")
        assert f"fleet trace {trace_id}" in text
        assert "coordinator[sweep]" in text


# -- the headline guarantee: live 2-worker sweep, merged scrape ---------------


class TestLiveFleetScrape:
    def test_two_worker_sweep_serves_merged_fleet(self, tmp_path):
        """During a live two-worker queue sweep the plane serves the
        merged fleet counters and reports both workers live."""
        queue = tmp_path / "q"
        backend = QueueBackend(queue, worker_grace=30.0,
                               poll_interval=0.02)
        workers = [run_worker_thread(queue, worker_id=f"obs-{i}")
                   for i in range(2)]
        runner = SweepRunner(experiment_id="obs-sweep",
                             backend=backend)
        server = ObservabilityServer(queue).start()
        try:
            cells = [{"seed": s} for s in range(6)]
            results = runner.map(draw, cells)
            assert len(results) == 6
            # Workers are still registered and heartbeating; poll
            # until every completion has reached a registration.
            deadline = time.time() + 10.0
            completed_line = None
            while time.time() < deadline:
                _, text = http_get(server.url + "/metrics")
                lines = text.splitlines()
                completed_line = next(
                    (line for line in lines if line.startswith(
                        "perf_worker_cells_completed ")), None)
                if completed_line == \
                        "perf_worker_cells_completed 6.0":
                    break
                time.sleep(0.05)
            assert completed_line == \
                "perf_worker_cells_completed 6.0"
            # Both workers contribute labelled series to the merge.
            for worker_id in ("obs-0", "obs-1"):
                assert any(f'{{worker="{worker_id}"}}' in line
                           for line in lines)
            _, body = http_get(server.url + "/fleet")
            fleet = json.loads(body)
            assert fleet["workers_live"] == 2
            assert sorted(w["worker"] for w in fleet["workers"]) \
                == ["obs-0", "obs-1"]
            # The coordinator stamped a trace; the plane serves it.
            _, trace = http_get(server.url + "/trace")
            assert "fleet trace obs_sweep-" in trace
        finally:
            server.close()
            for worker, thread in workers:
                stop_worker(worker, thread)

    def test_counter_merge_is_monotone(self, tmp_path):
        """Re-registering with higher counts only grows the sum --
        the property the CI serve-smoke job asserts mid-sweep."""
        register_worker(tmp_path, "w1", completed=2)
        aggregator = FleetAggregator(tmp_path)

        def fleet_sum():
            for line in aggregator.metrics_text().splitlines():
                if line.startswith("perf_worker_cells_completed "):
                    return float(line.split()[-1])
            return 0.0

        first = fleet_sum()
        register_worker(tmp_path, "w1", completed=5)
        register_worker(tmp_path, "w2", completed=1)
        assert fleet_sum() >= first
        assert fleet_sum() == 6.0


# -- cross-host trace stitching -----------------------------------------------


class TestTraceStitching:
    def record(self, trace_id, path, ts, wall_s=0.1):
        return {"trace_id": trace_id, "name": path.split("/")[-1],
                "path": path, "ts": ts, "wall_s": wall_s,
                "cpu_s": wall_s / 2}

    def test_synthesizes_missing_worker_levels(self):
        tid = "t-1"
        records = [
            self.record(tid, "coordinator[x]", 100.0, wall_s=1.0),
            self.record(tid, "coordinator[x]/worker:w1/cell[0]",
                        100.1),
            self.record(tid, "coordinator[x]/worker:w1/cell[1]",
                        100.3),
        ]
        chosen, spans = build_fleet_tree(records)
        assert chosen == tid
        paths = {span["path"] for span in spans}
        # The worker level was never recorded; it is synthesized so
        # the cells still hang off one tree.
        assert "coordinator[x]/worker:w1" in paths
        assert "coordinator[x]/worker:w1/cell[0]" in paths

    def test_latest_trace_wins_and_override(self):
        records = [self.record("old", "root-a", 50.0),
                   self.record("new", "root-b", 200.0)]
        chosen, spans = build_fleet_tree(records)
        assert chosen == "new"
        chosen, spans = build_fleet_tree(records, trace_id="old")
        assert chosen == "old"
        assert spans[0]["path"] == "root-a"

    def test_read_records_skips_garbage(self, tmp_path):
        shard = trace_shard_path(tmp_path, "w1")
        append_trace_record(shard, self.record("t", "root", 1.0))
        with open(shard, "a") as stream:
            stream.write('{"torn": \n')  # crashed writer's tail
        assert len(read_trace_records(tmp_path)) == 1

    def test_render_fleet_reports_missing(self, tmp_path):
        assert "no fleet trace records" in render_fleet(tmp_path)
        shard = trace_shard_path(tmp_path, "w1")
        append_trace_record(shard, self.record("t-9", "root", 1.0))
        assert "available traces" in render_fleet(
            tmp_path, trace_id="absent")
        assert "fleet trace t-9" in render_fleet(tmp_path)


def _tests_on_pythonpath(monkeypatch):
    tests_dir = str(Path(__file__).parent)
    existing = os.environ.get("PYTHONPATH")
    monkeypatch.setenv(
        "PYTHONPATH",
        tests_dir if not existing
        else os.pathsep.join([tests_dir, existing]))


class TestTraceSurvivesChaos:
    def test_trace_id_propagates_through_sigkilled_cell(
            self, tmp_path, monkeypatch):
        """A SIGKILLed worker loses its lease, a peer steals and
        completes the cell -- and the recompute carries the
        coordinator's original trace id, so the sweep still stitches
        into exactly one tree."""
        _tests_on_pythonpath(monkeypatch)
        queue = tmp_path / "q"
        flags = tmp_path / "flags"
        flags.mkdir()
        cells = [{"x": x, "flag_dir": str(flags)} for x in (1, 2, 3)]

        procs = [spawn_worker(queue, lease_ttl=1.0, max_idle=20.0,
                              worker_id=f"trace-{i}")
                 for i in range(2)]
        backend = QueueBackend(queue, lease_ttl=1.0,
                               worker_grace=60.0,
                               poll_interval=0.05)
        runner = SweepRunner(experiment_id="chaos-trace",
                             backend=backend)
        try:
            results = runner.map(trace_kill_cell, cells)
        finally:
            for proc in procs:
                proc.terminate()
            for proc in procs:
                proc.wait(timeout=30)
        assert results == [1001, 1002, 1003]
        assert (flags / "killed-2").exists(), \
            "the chaos cell never fired -- the test proved nothing"

        records = read_trace_records(queue)
        trace_ids = {r["trace_id"] for r in records}
        assert len(trace_ids) == 1, \
            f"stolen cell forked the trace: {trace_ids}"
        ok_cells = {r["path"].rsplit("/", 1)[-1] for r in records
                    if "/cell[" in r["path"]
                    and r.get("status") == "ok"}
        assert ok_cells == {"cell[0]", "cell[1]", "cell[2]"}
        # The killed cell's completion names a surviving worker and
        # records the steal.
        stolen = [r for r in records
                  if r["path"].endswith("cell[1]")
                  and r.get("status") == "ok"]
        assert stolen and stolen[0]["steals"] >= 1
        text = render_fleet(queue)
        assert text.count("fleet trace") == 1
        assert "worker:trace-" in text


# -- sampling profiler --------------------------------------------------------


def _busy(deadline_s):
    total = 0
    deadline = time.perf_counter() + deadline_s
    while time.perf_counter() < deadline:
        total += sum(range(100))
    return total


class TestSamplingProfiler:
    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError, match="interval"):
            SamplingProfiler(interval=0.0)

    def test_double_start_raises(self):
        profiler = SamplingProfiler()
        profiler.start()
        try:
            with pytest.raises(RuntimeError, match="running"):
                profiler.start()
        finally:
            profiler.stop()

    def test_samples_land_and_shares_normalize(self):
        with SamplingProfiler(interval=0.001) as profiler:
            _busy(0.1)
        assert profiler.total_samples > 0
        shares = profiler.shares()
        assert shares and sum(shares.values()) \
            == pytest.approx(1.0)
        # Pure-python busywork in a test file is not engine code.
        assert "other" in shares
        assert "other" in profiler.format_report()

    def test_classify_frame_outside_engine_is_other(self):
        import sys
        assert classify_frame(sys._getframe()) == "other"

    def test_classify_frame_in_dde_integrator_is_fluid(self):
        from repro.core.fluid import dde
        namespace = {}
        exec(compile("import sys\nframe = sys._getframe()",
                     dde.__file__, "exec"), namespace)
        assert classify_frame(namespace["frame"]) == "fluid"

    def test_publish_writes_gauges(self):
        registry = MetricsRegistry()
        with SamplingProfiler(interval=0.001) as profiler:
            _busy(0.05)
        profiler.publish(registry=registry)
        snapshot = registry.snapshot()
        assert snapshot["obs.profile.samples_total"]["value"] \
            == profiler.total_samples > 0
        assert snapshot["obs.profile.other_share"]["value"] > 0

    def test_profiled_contextmanager_publishes(self):
        from repro.obs.metrics import use_registry
        with use_registry(MetricsRegistry()) as registry:
            with profiled(interval=0.001) as profiler:
                _busy(0.05)
            snapshot = registry.snapshot()
        assert profiler.total_samples > 0
        assert "obs.profile.samples_total" in snapshot

    def test_publish_engine_rates(self):
        class FakeSim:
            events_processed = 1000
            packets_processed = 400

        registry = MetricsRegistry()
        rates = publish_engine_rates(FakeSim(), wall_s=2.0,
                                     registry=registry)
        assert rates == {"events_per_sec": 500.0,
                         "pkts_per_sec": 200.0}
        snapshot = registry.snapshot()
        assert snapshot["sim.engine.events_per_sec"]["value"] \
            == 500.0
        assert snapshot["sim.engine.pkts_per_sec"]["value"] == 200.0

    def test_report_is_runlog_payload(self):
        with SamplingProfiler(interval=0.001) as profiler:
            _busy(0.05)
        report = profiler.report()
        assert report["samples"] == profiler.total_samples
        assert report["interval_s"] == 0.001
        assert report["wall_s"] > 0
        json.dumps(report)  # JSON-ready, as the runlog requires

    def test_overhead_within_bound(self):
        """Sampling from the sidecar must not tax the event loop.

        CI gates the full-size run at >= 0.95 (the < 5 % budget);
        here a shorter run with a loose 0.5 floor guards against a
        regression to per-event instrumentation without inviting
        timer flake.
        """
        from repro.perf.bench import bench_profiler_overhead
        result = bench_profiler_overhead(n_events=30_000)
        assert result["on_over_off_ratio"] > 0.5
        assert result["events_per_sec_off"] > 0
        assert "shares" in result
