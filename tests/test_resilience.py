"""Chaos tests for the resilient sweep layer.

Every failure mode the resilience machinery claims to survive is
induced on purpose here: cells that raise, cells that hang past their
wall-clock budget, workers that die by SIGKILL, journals truncated
mid-line by a crash, and runs interrupted and resumed.  The contracts
under test are the ones ``docs/PERFORMANCE.md`` promises: a poison
cell costs its own slot (a :class:`CellFailure`) and nothing else, a
resumed sweep is bit-identical to an uninterrupted one, and a crash
capsule replays the original failure deterministically.
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
                        ResultCache, SweepJournal, SweepRunner,
                        collect_failures, is_failure, journal_for,
                        replay_capsule)
from repro.perf.cache import FINGERPRINT_ENV
from repro.perf.resilience import decode_value, encode_value
from repro.perf.sweep import WORKER_ENV

# -- module-level cells (picklable into worker processes) ---------------------


def square(x):
    return x * x


def seeded_draw(seed):
    """A vector result that is a pure function of the seed: any
    nondeterminism in transport or journaling shows up as inequality."""
    rng = np.random.default_rng(seed)
    return rng.random(8)


def counted_cell(x, counter_dir):
    """Record every invocation on disk so tests can count executions
    across processes and resumed runs."""
    Path(counter_dir, f"call-{x}-{os.getpid()}-{time.monotonic_ns()}"
         ).touch()
    return x * 10


def poison_cell(x):
    if x == 3:
        raise ValueError(f"poison {x}")
    return x * 10


def flaky_cell(x, counter_dir):
    """Fail the first two attempts for x == 2, then succeed."""
    attempts = len(list(Path(counter_dir).glob(f"flaky-{x}-*")))
    Path(counter_dir, f"flaky-{x}-{attempts}").touch()
    if x == 2 and attempts < 2:
        raise RuntimeError(f"transient {x} attempt {attempts}")
    return x + 100


def hang_cell(x):
    """x == 1 hangs far past any test timeout; the pool must kill it."""
    if x == 1:
        time.sleep(300)
    return x * 7


def slow_cell(x):
    """Outlasts a 0.05 s budget that a serial sweep cannot enforce."""
    time.sleep(0.2)
    return x


def crash_cell(x):
    """x == 2 SIGKILLs its worker -- but only inside a pool worker.

    The guard matters twice over: without it a degraded-to-serial
    drain would kill the pytest process itself, and the sweep runner's
    serial fallback is exactly how such a cell is supposed to finally
    succeed (the parent is not expendable, so it does not crash).
    """
    if x == 2 and os.environ.get(WORKER_ENV):
        os.kill(os.getpid(), signal.SIGKILL)
    return x * 5


def interrupting_cell(x):
    if x == 2:
        raise KeyboardInterrupt
    return x


# -- policy -------------------------------------------------------------------


class TestResiliencePolicy:
    def test_backoff_schedule(self):
        policy = ResiliencePolicy(backoff_base=0.25, backoff_factor=2.0,
                                  backoff_max=1.0)
        assert policy.backoff(0) == 0.0
        assert policy.backoff(1) == 0.25
        assert policy.backoff(2) == 0.5
        assert policy.backoff(3) == 1.0  # capped
        assert policy.backoff(10) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(cell_timeout=0.0)
        with pytest.raises(ValueError):
            ResiliencePolicy(max_retries=-1)
        with pytest.raises(ValueError):
            ResiliencePolicy(max_pool_respawns=-1)


# -- retries and quarantine ---------------------------------------------------


class TestRetries:
    def test_serial_transient_failure_retried(self, tmp_path):
        slept = []
        policy = ResiliencePolicy(max_retries=2, backoff_base=0.25,
                                  write_capsules=False,
                                  sleep=slept.append)
        runner = SweepRunner(experiment_id="flaky", resilience=policy)
        result = runner.map(flaky_cell,
                            [{"x": i, "counter_dir": str(tmp_path)}
                             for i in range(4)])
        assert result == [100, 101, 102, 103]
        # Two failures before success: backoff(1) then backoff(2).
        assert slept == [0.25, 0.5]
        attempts = len(list(tmp_path.glob("flaky-2-*")))
        assert attempts == 3

    def test_parallel_transient_failure_retried(self, tmp_path):
        policy = ResiliencePolicy(max_retries=2, backoff_base=0.0,
                                  write_capsules=False)
        runner = SweepRunner(workers=2, experiment_id="flaky",
                             resilience=policy)
        result = runner.map(flaky_cell,
                            [{"x": i, "counter_dir": str(tmp_path)}
                             for i in range(4)])
        assert result == [100, 101, 102, 103]

    def test_quarantine_preserves_other_cells(self, tmp_path):
        policy = ResiliencePolicy(max_retries=1, backoff_base=0.0,
                                  capsule_dir=tmp_path / "capsules")
        runner = SweepRunner(experiment_id="poison", resilience=policy)
        result = runner.map(poison_cell, [{"x": i} for i in range(5)])
        assert result[:3] == [0, 10, 20]
        assert result[4] == 40
        failure = result[3]
        assert is_failure(failure)
        assert failure.kind == "exception"
        assert failure.error_type == "ValueError"
        assert "poison 3" in failure.error_message
        assert failure.attempts == 2  # first try + one retry
        assert failure.index == 3
        assert "poison 3" in failure.traceback
        assert "poison[3]" in str(failure)

    def test_quarantine_emits_sweep_events(self, tmp_path):
        from repro.obs import Telemetry, read_events, validate_file
        policy = ResiliencePolicy(max_retries=1, backoff_base=0.0,
                                  capsule_dir=tmp_path / "capsules")
        telemetry = Telemetry(tmp_path / "obs", experiment="poison")
        with telemetry.activate():
            SweepRunner(experiment_id="poison", resilience=policy) \
                .map(poison_cell, [{"x": i} for i in range(5)])
        events = [e for e in read_events(telemetry.runlog_path)
                  if e["type"] == "sweep"]
        kinds = [e["event"] for e in events]
        assert kinds.count("cell_retry") == 1
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
        policy = ResiliencePolicy(cell_timeout=1.0, max_retries=0,
                                  capsule_dir=tmp_path / "capsules")
        runner = SweepRunner(workers=2, experiment_id="hang",
                             resilience=policy)
        started = time.monotonic()
        result = runner.map(hang_cell, [{"x": i} for i in range(4)])
        elapsed = time.monotonic() - started
        assert elapsed < 60  # nowhere near the cell's 300s sleep
        assert result[0] == 0
        assert result[2] == 14
        assert result[3] == 21
        failure = result[1]
        assert is_failure(failure)
        assert failure.kind == "timeout"
        assert failure.attempts == 1

    def test_serial_sweep_warns_timeout_is_not_enforced(self):
        # A serial sweep cannot preempt its own cell: it says so once
        # per sweep instead of silently letting the budget pass.
        policy = ResiliencePolicy(cell_timeout=0.05,
                                  write_capsules=False)
        runner = SweepRunner(workers=1, resilience=policy)
        with pytest.warns(RuntimeWarning,
                          match="not enforced") as caught:
            result = runner.map(slow_cell, [{"x": 1}, {"x": 2}])
        assert result == [1, 2]
        assert len([w for w in caught
                    if "not enforced" in str(w.message)]) == 1

    def test_nested_serial_sweep_does_not_warn(self, monkeypatch):
        monkeypatch.setenv(WORKER_ENV, "1")
        policy = ResiliencePolicy(cell_timeout=0.05,
                                  write_capsules=False)
        runner = SweepRunner(workers=4, resilience=policy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert runner.map(square, [{"x": 3}, {"x": 4}]) == [9, 16]


class TestPoolSupervision:
    def test_sigkilled_worker_sweep_still_completes(self, monkeypatch):
        # Every parallel attempt of cell 2 kills its worker; the
        # runner respawns the pool, halves its width past the respawn
        # budget, and the final serial drain (parent process, no
        # WORKER_ENV) completes the cell.  Spawn cost pinned to zero
        # so the cheap grid still goes through the pool under test.
        from repro.perf import sweep as sweep_module
        monkeypatch.setattr(sweep_module, "POOL_SPAWN_COST_S", 0.0)
        policy = ResiliencePolicy(max_pool_respawns=1, max_retries=3,
                                  backoff_base=0.0,
                                  write_capsules=False)
        runner = SweepRunner(workers=2, experiment_id="crash",
                             resilience=policy)
        result = runner.map(crash_cell, [{"x": i} for i in range(5)])
        assert result == [0, 5, 10, 15, 20]

    def test_no_policy_worker_loss_still_raises(self, monkeypatch):
        # Pool supervision is always on, but without a policy a cell
        # that keeps losing its worker must surface an error -- never
        # a silent CellFailure placeholder.  The grid is cheap, so pin
        # the spawn-cost estimate to keep the probe dispatcher from
        # (correctly) keeping it serial -- the pool path is the one
        # under test.
        from repro.perf import sweep as sweep_module
        monkeypatch.setattr(sweep_module, "POOL_SPAWN_COST_S", 0.0)
        runner = SweepRunner(workers=2, experiment_id="crash")
        with pytest.raises(RuntimeError, match="lost its worker"):
            runner.map(crash_cell, [{"x": i} for i in range(5)])


# -- the journal --------------------------------------------------------------


class TestSweepJournal:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with SweepJournal(path, fingerprint="fp") as journal:
            journal.record_cell("exp", "k1", {"a": np.arange(3)},
                                attempts=1, elapsed=0.5)
        reloaded = SweepJournal(path, fingerprint="fp")
        hit, value = reloaded.lookup("k1")
        assert hit
        np.testing.assert_array_equal(value["a"], np.arange(3))
        assert reloaded.lookup("missing") == (False, None)

    def test_fingerprint_mismatch_ignored(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with SweepJournal(path, fingerprint="old") as journal:
            journal.record_cell("exp", "k1", 1, attempts=1, elapsed=0)
        reloaded = SweepJournal(path, fingerprint="new")
        assert reloaded.lookup("k1") == (False, None)
        assert reloaded.stale_entries == 1

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with SweepJournal(path, fingerprint="fp") as journal:
            journal.record_cell("exp", "k1", 1, attempts=1, elapsed=0)
            journal.record_cell("exp", "k2", 2, attempts=1, elapsed=0)
        with open(path, "a", encoding="utf-8") as stream:
            stream.write('{"version": 1, "type": "cell_done", "ke')
        reloaded = SweepJournal(path, fingerprint="fp")
        assert reloaded.torn_lines == 1
        assert reloaded.lookup("k1") == (True, 1)
        assert reloaded.lookup("k2") == (True, 2)

    def test_corrupt_interior_line_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with SweepJournal(path, fingerprint="fp") as journal:
            journal.record_cell("exp", "k1", 1, attempts=1, elapsed=0)
        text = path.read_text()
        path.write_text("garbage not json\n" + text)
        with pytest.raises(json.JSONDecodeError):
            SweepJournal(path, fingerprint="fp")

    def test_success_supersedes_failure(self, tmp_path):
        path = tmp_path / "j.jsonl"
        failure = CellFailure("exp", 0, {}, "exception", "E", "m", 2)
        with SweepJournal(path, fingerprint="fp") as journal:
            journal.record_failure(failure, "k1")
            journal.record_cell("exp", "k1", 42, attempts=3, elapsed=0)
        reloaded = SweepJournal(path, fingerprint="fp")
        assert reloaded.lookup("k1") == (True, 42)
        assert "k1" not in reloaded.failed

    def test_encode_decode_is_pickle_faithful(self):
        value = {"arr": np.linspace(0, 1, 7), "t": (1, "x")}
        decoded = decode_value(encode_value(value))
        assert pickle.dumps(decoded) == pickle.dumps(value)


class TestResume:
    def _policy(self, tmp_path):
        return ResiliencePolicy(journal_dir=tmp_path / "journals",
                                capsule_dir=tmp_path / "capsules")

    def test_resume_skips_journaled_cells(self, tmp_path):
        cells = [{"x": i, "counter_dir": str(tmp_path)}
                 for i in range(5)]
        policy = self._policy(tmp_path)
        # "Interrupted" first run: only the first three cells ran.
        first = SweepRunner(experiment_id="resume", resilience=policy)
        assert first.map(counted_cell, cells[:3]) == [0, 10, 20]
        ran_before = len(list(tmp_path.glob("call-*")))
        assert ran_before == 3
        # The resumed run recomputes only the two missing cells.
        second = SweepRunner(experiment_id="resume", resilience=policy)
        assert second.map(counted_cell, cells) == [0, 10, 20, 30, 40]
        assert len(list(tmp_path.glob("call-*"))) == ran_before + 2

    def test_resumed_run_bit_identical_to_clean_serial(self, tmp_path):
        cells = [{"seed": 100 + i} for i in range(6)]
        clean = SweepRunner(experiment_id="bits").map(seeded_draw,
                                                      cells)
        policy = self._policy(tmp_path)
        partial = SweepRunner(workers=2, experiment_id="bits",
                              resilience=policy)
        partial.map(seeded_draw, cells[:4])
        resumed = SweepRunner(workers=2, experiment_id="bits",
                              resilience=policy)
        result = resumed.map(seeded_draw, cells)
        # Per-value byte equality: every float bit survives the
        # journal round trip.  (Whole-list pickles can differ in memo
        # structure -- shared vs per-array dtype objects -- without
        # any value differing.)
        assert [pickle.dumps(r) for r in result] \
            == [pickle.dumps(c) for c in clean]

    def test_journal_promoted_into_cache(self, tmp_path):
        # A journal hit backfills the result cache so later runs hit
        # the cache directly.
        cache = ResultCache(root=tmp_path / "cache")
        policy = self._policy(tmp_path)
        first = SweepRunner(experiment_id="promote", resilience=policy)
        first.map(square, [{"x": 2}])
        cache_runner = SweepRunner(cache=cache,
                                   experiment_id="promote",
                                   resilience=policy)
        assert cache_runner.map(square, [{"x": 2}]) == [4]
        assert cache.stats.puts == 1

    def test_code_change_invalidates_journal(self, tmp_path,
                                             monkeypatch):
        cells = [{"x": i, "counter_dir": str(tmp_path)}
                 for i in range(3)]
        policy = self._policy(tmp_path)
        monkeypatch.setenv(FINGERPRINT_ENV, "fp-one")
        SweepRunner(experiment_id="inval",
                    resilience=policy).map(counted_cell, cells)
        assert len(list(tmp_path.glob("call-*"))) == 3
        monkeypatch.setenv(FINGERPRINT_ENV, "fp-two")
        SweepRunner(experiment_id="inval",
                    resilience=policy).map(counted_cell, cells)
        assert len(list(tmp_path.glob("call-*"))) == 6

    def test_journal_requires_experiment_id(self, tmp_path):
        with pytest.raises(ValueError):
            SweepRunner(resilience=self._policy(tmp_path))

    def test_keyboard_interrupt_flushes_journal(self, tmp_path):
        policy = self._policy(tmp_path)
        runner = SweepRunner(experiment_id="interrupt",
                             resilience=policy)
        with pytest.raises(KeyboardInterrupt):
            runner.map(interrupting_cell, [{"x": i} for i in range(5)])
        journal = journal_for("interrupt", policy.journal_dir)
        assert len(journal.completed) == 2  # cells 0 and 1 survived


# -- journal shards (one writer per process) ---------------------------------


class TestJournalShards:
    def test_shard_write_path(self, tmp_path):
        base = tmp_path / "exp.journal.jsonl"
        journal = SweepJournal(base, fingerprint="fp", shard="h-1")
        journal.record_cell("exp", "k1", 41, 1, 0.0)
        journal.close()
        assert not base.exists()
        assert (tmp_path / "exp.journal-h-1.jsonl").exists()

    def test_reads_merge_all_shards(self, tmp_path):
        base = tmp_path / "exp.journal.jsonl"
        for shard, key, value in (("a", "k1", 1), ("b", "k2", 2)):
            journal = SweepJournal(base, fingerprint="fp",
                                   shard=shard)
            journal.record_cell("exp", key, value, 1, 0.0)
            journal.close()
        # An unsharded reader -- and any third shard -- sees the union.
        merged = SweepJournal(base, fingerprint="fp")
        assert merged.lookup("k1") == (True, 1)
        assert merged.lookup("k2") == (True, 2)
        third = SweepJournal(base, fingerprint="fp", shard="c")
        assert third.lookup("k1") == (True, 1)

    def test_journal_for_shard(self, tmp_path):
        journal = journal_for("exp", tmp_path, fingerprint="fp",
                              shard="w1")
        journal.record_cell("exp", "k", "v", 1, 0.0)
        journal.close()
        assert (tmp_path / "exp.journal-w1.jsonl").exists()

    def test_torn_shard_tail_tolerated(self, tmp_path):
        base = tmp_path / "exp.journal.jsonl"
        journal = SweepJournal(base, fingerprint="fp", shard="a")
        journal.record_cell("exp", "k1", 7, 1, 0.0)
        journal.close()
        shard_path = tmp_path / "exp.journal-a.jsonl"
        with open(shard_path, "a", encoding="utf-8") as stream:
            stream.write('{"version": 1, "type": "cell_do')
        merged = SweepJournal(base, fingerprint="fp")
        assert merged.lookup("k1") == (True, 7)
        assert merged.torn_lines == 1

    def test_resumed_sweep_merges_other_shards(self, tmp_path):
        """A resumed run (fresh pid => fresh shard) must see cells
        journaled by any earlier process."""
        policy = ResiliencePolicy(journal_dir=tmp_path,
                                  write_capsules=False)
        runner = SweepRunner(experiment_id="shardres",
                             resilience=policy)
        first = runner.map(square, [{"x": x} for x in (1, 2, 3)])
        runner.journal.close()
        # Simulate another process: move the (compacted) journal
        # into a foreign shard, as a peer's appends would appear.
        base = tmp_path / "shardres.journal.jsonl"
        base.rename(tmp_path / "shardres.journal-otherhost-1.jsonl")
        resumed_runner = SweepRunner(experiment_id="shardres",
                                     resilience=policy)
        resumed = resumed_runner.map(
            square, [{"x": x} for x in (1, 2, 3)])
        assert resumed == first
        assert resumed_runner.journal.completed  # served from merge

    def test_sweep_completion_compacts_shards(self, tmp_path):
        """A finished sweep folds its per-process shard into the
        base journal; long-lived experiments don't accumulate one
        shard file per run ever executed."""
        policy = ResiliencePolicy(journal_dir=tmp_path,
                                  write_capsules=False)
        runner = SweepRunner(experiment_id="cmpact",
                             resilience=policy)
        runner.map(square, [{"x": x} for x in (1, 2)])
        assert (tmp_path / "cmpact.journal.jsonl").exists()
        assert list(tmp_path.glob("cmpact.journal-*.jsonl")) == []
        # The compacted journal still resumes every cell.
        resumed = SweepRunner(experiment_id="cmpact",
                              resilience=policy)
        assert resumed.map(square, [{"x": x} for x in (1, 2)]) \
            == [1, 4]

    def test_compact_merges_and_unlinks_shards(self, tmp_path):
        base = tmp_path / "exp.journal.jsonl"
        for shard, key, value in (("a", "k1", 1), ("b", "k2", 2)):
            journal = SweepJournal(base, fingerprint="fp",
                                   shard=shard)
            journal.record_cell("exp", key, value, 1, 0.0)
            journal.close()
        journal = SweepJournal(base, fingerprint="fp", shard="c")
        journal.record_cell("exp", "k3", 3, 1, 0.0)
        assert journal.compact() == 3
        assert base.exists()
        assert list(tmp_path.glob("exp.journal-*.jsonl")) == []
        merged = SweepJournal(base, fingerprint="fp")
        for key, value in (("k1", 1), ("k2", 2), ("k3", 3)):
            assert merged.lookup(key) == (True, value)

    def test_compact_drops_foreign_fingerprints(self, tmp_path):
        # Orphaned entries (stale code) are garbage-collected by
        # compaction, exactly like cache invalidation.
        base = tmp_path / "exp.journal.jsonl"
        old = SweepJournal(base, fingerprint="old", shard="a")
        old.record_cell("exp", "k-old", 1, 1, 0.0)
        old.close()
        new = SweepJournal(base, fingerprint="new", shard="b")
        new.record_cell("exp", "k-new", 2, 1, 0.0)
        new.compact()
        reloaded = SweepJournal(base, fingerprint="new")
        assert reloaded.lookup("k-new") == (True, 2)
        assert reloaded.stale_entries == 0

    def test_compact_without_shards_is_noop(self, tmp_path):
        base = tmp_path / "exp.journal.jsonl"
        journal = SweepJournal(base, fingerprint="fp")
        journal.record_cell("exp", "k", 1, 1, 0.0)
        assert journal.compact() == 0
        assert SweepJournal(base,
                            fingerprint="fp").lookup("k") == (True, 1)


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

    def test_sweep_writes_replayable_capsule(self, tmp_path):
        policy = ResiliencePolicy(max_retries=0,
                                  capsule_dir=tmp_path / "capsules")
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
        from repro.__main__ import main
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["run", "ext_faults", "--resume",
                     "--cell-retries", "1"]) == 0
        # Journal appends go to a per-process shard (base name plus
        # -<host>-<pid>) so concurrent writers never share a file.
        journals = list((tmp_path / "journals").glob(
            "ext_fault_resilience.journal*.jsonl"))
        assert journals
        capsys.readouterr()
        assert main(["run", "ext_faults", "--resume"]) == 0
        # Second run served entirely from the journal: near-instant.
        out = capsys.readouterr().out
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
