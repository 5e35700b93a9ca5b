"""Chaos tests for the resilient sweep layer.

Every failure mode the resilience machinery claims to survive is
induced on purpose here: cells that raise, cells that hang past their
wall-clock budget, workers that die by SIGKILL, and runs interrupted
and resumed through the result cache.  The contracts under test are
the ones ``docs/PERFORMANCE.md`` promises: a failing cell runs once
and costs its own slot (a :class:`CellFailure`) and nothing else, a
sweep resumed from the cache is bit-identical to an uninterrupted one,
and a crash capsule replays the original failure deterministically.
"""

import json
import os
import pickle
import signal
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.perf import (CellFailure, CrashCapsule, ResiliencePolicy,
                        ResultCache, SweepRunner, collect_failures,
                        is_failure, replay_capsule)
from repro.perf.resilience import decode_value, encode_value
from repro.perf.sweep import DEFAULT_POOL_RESPAWNS, WORKER_ENV

# -- module-level cells (picklable into worker processes) ---------------------


def square(x):
    return x * x


def seeded_draw(seed):
    """A vector result that is a pure function of the seed: any
    nondeterminism in transport or caching shows up as inequality."""
    rng = np.random.default_rng(seed)
    return rng.random(8)


def counted_cell(x, counter_dir):
    """Record every invocation on disk so tests can count executions
    across processes and resumed runs."""
    Path(counter_dir, f"call-{x}-{os.getpid()}-{time.monotonic_ns()}"
         ).touch()
    return x * 10


def counted_poison_cell(x, counter_dir):
    """``counted_cell`` that raises for x == 3."""
    value = counted_cell(x, counter_dir)
    if x == 3:
        raise ValueError(f"poison {x}")
    return value


def poison_cell(x):
    if x == 3:
        raise ValueError(f"poison {x}")
    return x * 10


def hang_cell(x, counter_dir):
    """x == 1 hangs far past any test timeout; the pool must kill it."""
    if x == 1:
        Path(counter_dir, f"hang-{os.getpid()}-{time.monotonic_ns()}"
             ).touch()
        time.sleep(300)
    return x * 7


def slow_cell(x):
    """Outlasts a 0.05 s budget that a serial sweep cannot enforce."""
    time.sleep(0.2)
    return x


def crash_cell(x):
    """x == 2 SIGKILLs its worker -- but only inside a pool worker.

    The guard keeps the cell harmless if it ever runs in the test
    process itself (the dispatcher's in-process probe or a serial
    fallback): the parent is not expendable.
    """
    if x == 2 and os.environ.get(WORKER_ENV):
        os.kill(os.getpid(), signal.SIGKILL)
    return x * 5


def interrupting_cell(x):
    if x == 2:
        raise KeyboardInterrupt
    return x


@pytest.fixture
def pool_always(monkeypatch):
    """Pin the spawn-cost estimate to zero so the probe dispatcher
    sends even a cheap grid through the pool -- the path under test."""
    from repro.perf import sweep as sweep_module
    monkeypatch.setattr(sweep_module, "POOL_SPAWN_COST_S", 0.0)


# -- policy -------------------------------------------------------------------


class TestResiliencePolicy:
    def test_validation(self):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="cell_timeout"):
                ResiliencePolicy(cell_timeout=bad)
        assert ResiliencePolicy(cell_timeout=0.5).cell_timeout == 0.5


# -- quarantine: a failing cell is never retried ------------------------------


class TestRetries:
    """Cells are deterministic: a cell that raised would raise again,
    so it is quarantined on its first failure, never retried."""

    def test_quarantine_preserves_other_cells(self, tmp_path):
        policy = ResiliencePolicy(capsule_dir=tmp_path / "capsules")
        runner = SweepRunner(experiment_id="poison", resilience=policy)
        result = runner.map(poison_cell, [{"x": i} for i in range(5)])
        assert result[:3] == [0, 10, 20]
        assert result[4] == 40
        failure = result[3]
        assert is_failure(failure)
        assert failure.kind == "exception"
        assert failure.error_type == "ValueError"
        assert "poison 3" in failure.error_message
        assert failure.attempts == 1
        assert failure.index == 3
        assert "poison 3" in failure.traceback
        assert "poison[3]" in str(failure)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_raising_cell_executes_once(self, tmp_path, workers,
                                        pool_always):
        policy = ResiliencePolicy(capsule_dir=tmp_path / "capsules")
        runner = SweepRunner(workers=workers, experiment_id="once",
                             resilience=policy)
        result = runner.map(counted_poison_cell,
                            [{"x": i, "counter_dir": str(tmp_path)}
                             for i in range(5)])
        assert [result[i] for i in (0, 1, 2, 4)] == [0, 10, 20, 40]
        assert result[3].kind == "exception"
        assert result[3].attempts == 1
        assert len(list(tmp_path.glob("call-3-*"))) == 1
        assert len(list(tmp_path.glob("call-*"))) == 5

    def test_quarantine_emits_sweep_events(self, tmp_path):
        from repro.obs import Telemetry, read_events, validate_file
        policy = ResiliencePolicy(capsule_dir=tmp_path / "capsules")
        telemetry = Telemetry(tmp_path / "obs", experiment="poison")
        with telemetry.activate():
            SweepRunner(experiment_id="poison", resilience=policy) \
                .map(poison_cell, [{"x": i} for i in range(5)])
        events = [e for e in read_events(telemetry.runlog_path)
                  if e["type"] == "sweep"]
        kinds = [e["event"] for e in events]
        assert kinds.count("cell_retry") == 0
        assert kinds.count("cell_quarantined") == 1
        assert validate_file(telemetry.runlog_path) == []

    def test_collect_failures_walks_containers(self):
        failure = CellFailure("x", 0, {}, "exception", "E", "m", 1)
        nested = {"a": [1, failure, (2, failure)], "b": "text"}
        assert collect_failures(nested) == [failure, failure]
        assert collect_failures([1, 2, 3]) == []

    def test_without_policy_first_error_raises(self):
        runner = SweepRunner(experiment_id="poison")
        with pytest.raises(ValueError, match="poison 3"):
            runner.map(poison_cell, [{"x": i} for i in range(5)])

    def test_without_policy_parallel_error_raises(self):
        runner = SweepRunner(workers=2, experiment_id="poison")
        with pytest.raises(ValueError, match="poison 3"):
            runner.map(poison_cell, [{"x": i} for i in range(5)])


class TestTimeouts:
    def test_hung_cell_quarantined_innocents_survive(self, tmp_path):
        policy = ResiliencePolicy(cell_timeout=1.0,
                                  capsule_dir=tmp_path / "capsules")
        runner = SweepRunner(workers=2, experiment_id="hang",
                             resilience=policy)
        started = time.monotonic()
        result = runner.map(hang_cell,
                            [{"x": i, "counter_dir": str(tmp_path)}
                             for i in range(4)])
        elapsed = time.monotonic() - started
        assert elapsed < 60  # nowhere near the cell's 300s sleep
        assert result[0] == 0
        assert result[2] == 14
        assert result[3] == 21
        failure = result[1]
        assert is_failure(failure)
        assert failure.kind == "timeout"
        assert failure.attempts == 1
        # One timeout, one execution: the budget is never burnt twice.
        assert len(list(tmp_path.glob("hang-*"))) == 1

    def test_serial_sweep_warns_timeout_is_not_enforced(self):
        # A serial sweep cannot preempt its own cell: it says so once
        # per sweep instead of silently letting the budget pass.
        policy = ResiliencePolicy(cell_timeout=0.05)
        runner = SweepRunner(workers=1, resilience=policy)
        with pytest.warns(RuntimeWarning,
                          match="not enforced") as caught:
            result = runner.map(slow_cell, [{"x": 1}, {"x": 2}])
        assert result == [1, 2]
        assert len([w for w in caught
                    if "not enforced" in str(w.message)]) == 1

    def test_nested_serial_sweep_does_not_warn(self, monkeypatch):
        monkeypatch.setenv(WORKER_ENV, "1")
        policy = ResiliencePolicy(cell_timeout=0.05)
        runner = SweepRunner(workers=4, resilience=policy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert runner.map(square, [{"x": 3}, {"x": 4}]) == [9, 16]


class TestPoolSupervision:
    def test_sigkilled_worker_sweep_still_completes(self, tmp_path,
                                                    pool_always):
        # Every dispatch of cell 2 kills its worker; the runner
        # respawns the pool and re-dispatches it until its lost-worker
        # budget is spent, then quarantines it.  The other cells
        # complete, and the killer never runs in this process.
        policy = ResiliencePolicy(capsule_dir=tmp_path / "capsules")
        runner = SweepRunner(workers=2, experiment_id="crash",
                             resilience=policy)
        result = runner.map(crash_cell, [{"x": i} for i in range(5)])
        assert [result[i] for i in (0, 1, 3, 4)] == [0, 5, 15, 20]
        failure = result[2]
        assert is_failure(failure)
        assert failure.kind == "worker-lost"
        assert failure.error_type == "WorkerLost"
        assert failure.attempts == DEFAULT_POOL_RESPAWNS + 1
        assert failure.capsule_path is not None

    def test_no_policy_worker_loss_still_raises(self, pool_always):
        # Pool supervision is always on, but without a policy a cell
        # that keeps losing its worker must surface an error -- never
        # a silent CellFailure placeholder.
        runner = SweepRunner(workers=2, experiment_id="crash")
        with pytest.raises(RuntimeError, match="lost its worker"):
            runner.map(crash_cell, [{"x": i} for i in range(5)])


# -- resume: the result cache is the crash-surviving store --------------------


class TestResume:
    def test_resume_skips_cached_cells(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        calls = tmp_path / "calls"
        calls.mkdir()
        cells = [{"x": i, "counter_dir": str(calls)} for i in range(5)]
        # "Interrupted" first run: only the first three cells ran.
        first = SweepRunner(cache=cache, experiment_id="resume")
        assert first.map(counted_cell, cells[:3]) == [0, 10, 20]
        assert len(list(calls.glob("call-*"))) == 3
        # The resumed run executes only the two missing cells.
        second = SweepRunner(cache=ResultCache(root=tmp_path / "cache"),
                             experiment_id="resume")
        assert second.map(counted_cell, cells) == [0, 10, 20, 30, 40]
        assert len(list(calls.glob("call-*"))) == 5
        assert [len(list(calls.glob(f"call-{x}-*"))) for x in range(5)] \
            == [1] * 5
        assert second.cache.stats.hits == 3

    def test_resumed_run_bit_identical_to_clean_serial(self, tmp_path,
                                                       pool_always):
        cells = [{"seed": 100 + i} for i in range(6)]
        clean = SweepRunner(experiment_id="bits").map(seeded_draw,
                                                      cells)
        partial = SweepRunner(workers=2,
                              cache=ResultCache(root=tmp_path),
                              experiment_id="bits")
        partial.map(seeded_draw, cells[:4])
        resumed = SweepRunner(workers=2,
                              cache=ResultCache(root=tmp_path),
                              experiment_id="bits")
        result = resumed.map(seeded_draw, cells)
        assert resumed.cache.stats.hits == 4
        # Per-value byte equality: every float bit survives the
        # cache round trip.  (Whole-list pickles can differ in memo
        # structure -- shared vs per-array dtype objects -- without
        # any value differing.)
        assert [pickle.dumps(r) for r in result] \
            == [pickle.dumps(c) for c in clean]

    def test_keyboard_interrupt_keeps_finished_cells_cached(
            self, tmp_path):
        runner = SweepRunner(cache=ResultCache(root=tmp_path),
                             experiment_id="interrupt")
        cells = [{"x": i} for i in range(5)]
        with pytest.raises(KeyboardInterrupt):
            runner.map(interrupting_cell, cells)
        cache = ResultCache(root=tmp_path)
        params = [{"fn": interrupting_cell, "cell": cell}
                  for cell in cells]
        hits = [cache.get("interrupt", p)[0] for p in params]
        assert hits == [True, True, False, False, False]


# -- crash capsules and replay ------------------------------------------------


class TestCrashCapsules:
    def _capsule(self, tmp_path, fn=poison_cell, kwargs=None):
        failure = CellFailure("caps", 3, {"x": 3}, "exception",
                              "ValueError", "poison 3", 2,
                              traceback="Traceback...")
        capsule = CrashCapsule.from_failure(
            fn, kwargs if kwargs is not None else {"x": 3}, failure,
            cell_key="abcdef1234567890", fingerprint="fp")
        return capsule.write(tmp_path / "c.capsule.json")

    def test_roundtrip_preserves_kwargs_exactly(self, tmp_path):
        kwargs = {"x": 3, "arr": np.arange(4), "seed": 7}
        path = self._capsule(tmp_path, kwargs=kwargs)
        loaded = CrashCapsule.load(path)
        assert loaded.fn.endswith(":poison_cell")
        assert loaded.seed == 7
        np.testing.assert_array_equal(loaded.kwargs["arr"],
                                      np.arange(4))

    def test_version_gate(self, tmp_path):
        path = self._capsule(tmp_path)
        data = json.loads(path.read_text())
        data["version"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="version"):
            CrashCapsule.load(path)

    def test_replay_reproduces_original_failure(self, tmp_path):
        path = self._capsule(tmp_path)
        outcome = replay_capsule(path)
        assert outcome.reproduced
        assert outcome.error_type == "ValueError"
        assert "poison 3" in outcome.error_message
        assert "poison 3" in outcome.traceback
        assert outcome.matches_original

    def test_replay_detects_nonreproducing_failure(self, tmp_path):
        path = self._capsule(tmp_path, fn=square, kwargs={"x": 3})
        outcome = replay_capsule(path)
        assert not outcome.reproduced
        assert outcome.value == 9
        assert not outcome.matches_original

    def test_encode_decode_is_pickle_faithful(self):
        value = {"arr": np.linspace(0, 1, 7), "t": (1, "x")}
        decoded = decode_value(encode_value(value))
        assert pickle.dumps(decoded) == pickle.dumps(value)

    def test_sweep_writes_replayable_capsule(self, tmp_path):
        policy = ResiliencePolicy(capsule_dir=tmp_path / "capsules")
        runner = SweepRunner(experiment_id="caps", resilience=policy)
        result = runner.map(poison_cell, [{"x": i} for i in range(5)])
        [failure] = collect_failures(result)
        assert failure.capsule_path is not None
        outcome = replay_capsule(failure.capsule_path)
        assert outcome.matches_original
        assert outcome.capsule.params == {"x": 3}


# -- cache hardening ----------------------------------------------------------


class TestStaleTmpReaping:
    def test_old_tmp_files_removed(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cache.put("exp", {"x": 1}, "value")
        stale = tmp_path / "exp" / "deadbeef.pkl.tmp"
        stale.write_bytes(b"partial write from a dead process")
        assert cache.reap_stale_tmp(max_age_s=0.0) == 1
        assert not stale.exists()
        assert cache.stats.stale_tmp_reaped == 1
        # The real entry is untouched.
        assert cache.get("exp", {"x": 1}) == (True, "value")

    def test_fresh_tmp_files_kept(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        fresh = tmp_path / "live.pkl.tmp"
        fresh.write_bytes(b"a concurrent writer owns this")
        assert cache.reap_stale_tmp(max_age_s=3600.0) == 0
        assert fresh.exists()


# -- CLI ----------------------------------------------------------------------


class TestCLI:
    def test_run_resume_and_replay(self, tmp_path, monkeypatch,
                                   capsys):
        # ``--cache`` is the resume mechanism: a rerun against the
        # same cache serves every finished cell from disk.
        from repro.__main__ import main
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["run", "ext_faults", "--cache"]) == 0
        assert list((tmp_path / "ext_fault_resilience").glob("*.pkl"))
        capsys.readouterr()
        assert main(["run", "ext_faults", "--cache"]) == 0
        out = capsys.readouterr().out
        assert " 0 misses" in out
        # Second run served entirely from the cache: near-instant.
        assert "ext_faults took 0." in out

    def test_replay_missing_capsule_exits_2(self, tmp_path, capsys):
        from repro.__main__ import main
        missing = tmp_path / "nope.capsule.json"
        assert main(["replay", str(missing)]) == 2
        assert "cannot replay" in capsys.readouterr().err

    def test_replay_reports_reproduction(self, tmp_path, capsys):
        from repro.__main__ import main
        failure = CellFailure("cli", 0, {"x": 3}, "exception",
                              "ValueError", "poison 3", 1)
        capsule = CrashCapsule.from_failure(
            poison_cell, {"x": 3}, failure, cell_key="feedface0000",
            fingerprint="fp")
        path = capsule.write(tmp_path / "cli.capsule.json")
        assert main(["replay", str(path)]) == 1
        out = capsys.readouterr().out
        assert "matches the original failure" in out
