"""Tests for the performance layer: sweep runner + result cache.

The contracts under test are the ones the experiments lean on:
parallel execution is bit-identical to serial, cache hits return the
exact stored objects, and stale or corrupt entries are recovered from
-- never served, never fatal.
"""

import os
import pickle

import numpy as np
import pytest

from repro.core.params import DCQCNParams
from repro.experiments import ext_stability_map, fct_study
from repro.perf import (CacheStats, ResultCache, SweepRunner,
                        canonicalize, derive_seed, params_key,
                        resolve_workers)
from repro.perf.sweep import WORKER_ENV


def _poison(x):
    if x == 7:
        raise ValueError(f"poison {x}")
    return x


def square(x):
    """Module-level so worker processes can unpickle it."""
    return x * x


def seeded_draw(seed):
    """A cell whose result is a pure function of its seed."""
    rng = np.random.default_rng(seed)
    return float(rng.random())


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)

    def test_distinct_keys_distinct_seeds(self):
        seeds = {derive_seed(42, i) for i in range(100)}
        assert len(seeds) == 100

    def test_depends_on_base(self):
        assert derive_seed(1, 7) != derive_seed(2, 7)

    def test_independent_of_other_cells(self):
        # The seed for key (3,) is the same whether or not other
        # cells exist -- it is a pure function of (base, key).
        alone = derive_seed(9, 3)
        with_siblings = [derive_seed(9, k) for k in range(5)][3]
        assert alone == with_siblings


class TestResolveWorkers:
    def test_serial_defaults(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(1) == 1

    def test_explicit_count(self):
        assert resolve_workers(4) == 4

    def test_negative_means_all_cores(self):
        from repro.perf.sweep import effective_cpu_count
        assert resolve_workers(-1) == effective_cpu_count()

    def test_effective_count_respects_affinity(self):
        # The effective count must never exceed the raw count, and on
        # affinity-capable platforms must match what the scheduler
        # actually grants this process (a cgroup-limited CI runner
        # reports fewer CPUs than the machine has).
        from repro.perf.sweep import effective_cpu_count
        count = effective_cpu_count()
        assert count >= 1
        if hasattr(os, "sched_getaffinity"):
            assert count <= max(len(os.sched_getaffinity(0)),
                                os.cpu_count() or 1)

    def test_nested_worker_forced_serial(self, monkeypatch):
        monkeypatch.setenv(WORKER_ENV, "1")
        assert resolve_workers(8) == 1


class TestCanonicalize:
    def test_dataclass(self):
        params = DCQCNParams.paper_default(num_flows=2)
        form = canonicalize(params)
        assert form["__dataclass__"] == "DCQCNParams"
        assert form == canonicalize(params)

    def test_numpy_values(self):
        assert canonicalize(np.float64(1.5)) == 1.5
        assert canonicalize(np.array([1, 2])) == [1, 2]

    def test_dict_order_irrelevant(self):
        assert canonicalize({"a": 1, "b": 2}) == \
            canonicalize({"b": 2, "a": 1})

    def test_callable_keyed_by_name(self):
        assert canonicalize(square).endswith("square")

    def test_key_changes_with_params(self):
        base = params_key("exp", {"n": 1})
        assert base == params_key("exp", {"n": 1})
        assert base != params_key("exp", {"n": 2})
        assert base != params_key("other", {"n": 1})


class TestResultCache:
    def make(self, tmp_path, fingerprint="f0"):
        return ResultCache(root=tmp_path, fingerprint=fingerprint)

    def test_miss_put_hit(self, tmp_path):
        cache = self.make(tmp_path)
        hit, _ = cache.get("exp", {"n": 1})
        assert not hit
        cache.put("exp", {"n": 1}, {"answer": 42})
        hit, value = cache.get("exp", {"n": 1})
        assert hit and value == {"answer": 42}
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.puts == 1

    def test_params_change_is_plain_miss(self, tmp_path):
        cache = self.make(tmp_path)
        cache.put("exp", {"n": 1}, "a")
        hit, _ = cache.get("exp", {"n": 2})
        assert not hit
        assert cache.stats.invalidations == 0

    def test_fingerprint_change_invalidates(self, tmp_path):
        old = self.make(tmp_path, fingerprint="old-code")
        old.put("exp", {"n": 1}, "stale")
        new = self.make(tmp_path, fingerprint="new-code")
        hit, _ = new.get("exp", {"n": 1})
        assert not hit
        assert new.stats.invalidations == 1
        # The stale entry is gone: a re-read is a plain miss.
        hit, _ = new.get("exp", {"n": 1})
        assert not hit
        assert new.stats.invalidations == 1

    def test_corrupt_entry_recovered(self, tmp_path):
        cache = self.make(tmp_path)
        path = cache.put("exp", {"n": 1}, "good")
        path.write_bytes(b"definitely not a pickle")
        hit, _ = cache.get("exp", {"n": 1})
        assert not hit
        assert cache.stats.corrupt_entries == 1
        assert not path.exists()
        # get_or_run recomputes and repopulates.
        value = cache.get_or_run("exp", {"n": 1}, lambda: "recomputed")
        assert value == "recomputed"
        hit, value = cache.get("exp", {"n": 1})
        assert hit and value == "recomputed"

    def test_truncated_entry_recovered(self, tmp_path):
        cache = self.make(tmp_path)
        path = cache.put("exp", {"n": 1}, list(range(100)))
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        hit, _ = cache.get("exp", {"n": 1})
        assert not hit
        assert cache.stats.corrupt_entries == 1

    def test_entry_missing_keys_counts_corrupt(self, tmp_path):
        cache = self.make(tmp_path)
        path = cache.entry_path("exp", {"n": 1})
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"not": "an entry"}))
        hit, _ = cache.get("exp", {"n": 1})
        assert not hit
        assert cache.stats.corrupt_entries == 1

    def test_clear(self, tmp_path):
        cache = self.make(tmp_path)
        cache.put("a", {"n": 1}, 1)
        cache.put("a", {"n": 2}, 2)
        cache.put("b", {"n": 1}, 3)
        assert cache.clear("a") == 2
        assert cache.clear() == 1

    def test_stats_hit_rate(self):
        stats = CacheStats()
        assert stats.hit_rate == 0.0
        stats.hits, stats.misses = 3, 1
        assert stats.hit_rate == 0.75
        assert stats.as_dict()["hit_rate"] == 0.75


class TestSweepRunner:
    def test_serial_map_preserves_order(self):
        runner = SweepRunner(workers=1)
        cells = [{"x": i} for i in range(10)]
        assert runner.map(square, cells) == [i * i for i in range(10)]

    def test_parallel_identical_to_serial(self):
        cells = [{"seed": derive_seed(42, i)} for i in range(6)]
        serial = SweepRunner(workers=1).map(seeded_draw, cells)
        parallel = SweepRunner(workers=4).map(seeded_draw, cells)
        assert serial == parallel

    def test_cache_requires_experiment_id(self, tmp_path):
        with pytest.raises(ValueError):
            SweepRunner(cache=ResultCache(root=tmp_path))

    def test_cached_map_round_trip(self, tmp_path):
        cache = ResultCache(root=tmp_path, fingerprint="f")
        runner = SweepRunner(cache=cache, experiment_id="sq")
        cells = [{"x": i} for i in range(5)]
        first = runner.map(square, cells)
        second = runner.map(square, cells)
        assert first == second == [i * i for i in range(5)]
        assert cache.stats.puts == 5
        assert cache.stats.hits == 5

    def test_partial_cache_runs_only_missing(self, tmp_path):
        cache = ResultCache(root=tmp_path, fingerprint="f")
        runner = SweepRunner(cache=cache, experiment_id="sq")
        runner.map(square, [{"x": 1}])
        runner.map(square, [{"x": 1}, {"x": 2}])
        assert cache.stats.puts == 2
        assert cache.stats.hits == 1

    def test_cache_keyed_by_function(self, tmp_path):
        cache = ResultCache(root=tmp_path, fingerprint="f")
        runner = SweepRunner(cache=cache, experiment_id="exp")
        assert runner.map(square, [{"x": 3}]) == [9]
        assert runner.map(seeded_draw, [{"seed": 3}]) != [9]


class TestProbeDispatch:
    """The probe-based serial fallback and chunked submission."""

    def test_cheap_grid_stays_serial(self, monkeypatch):
        # Cells this cheap can never repay a pool spawn; the probe
        # keeps the sweep in-process -- the executor must never even
        # be constructed.
        from repro.perf import sweep as sweep_module

        def _no_pool(*args, **kwargs):
            raise AssertionError("pool spawned for a cheap grid")

        monkeypatch.setattr(sweep_module, "ProcessPoolExecutor",
                            _no_pool)
        cells = [{"x": i} for i in range(8)]
        assert SweepRunner(workers=4).map(square, cells) == \
            [i * i for i in range(8)]

    def test_chunked_pool_identical_to_serial(self, monkeypatch):
        # Spawn cost pinned to zero forces the pool even for cheap
        # cells, which then take the chunked (multi-cell-per-future)
        # path; order and values must match the serial run.
        from repro.perf import sweep as sweep_module
        monkeypatch.setattr(sweep_module, "POOL_SPAWN_COST_S", 0.0)
        cells = [{"seed": derive_seed(7, i)} for i in range(24)]
        serial = SweepRunner(workers=1).map(seeded_draw, cells)
        chunked = SweepRunner(workers=2).map(seeded_draw, cells)
        assert all(np.array_equal(a, b)
                   for a, b in zip(serial, chunked))

    def test_chunked_pool_reports_per_cell_errors(self, monkeypatch):
        from repro.perf import sweep as sweep_module
        monkeypatch.setattr(sweep_module, "POOL_SPAWN_COST_S", 0.0)
        runner = SweepRunner(workers=2, experiment_id="poison")

        with pytest.raises(ValueError, match="poison"):
            runner.map(_poison, [{"x": i} for i in range(12)])


class TestExperimentDeterminism:
    """workers=N and warm caches reproduce the serial results exactly."""

    FLOWS = (1, 4)
    DELAYS = (4.0, 55.0)

    def test_stability_map_parallel_identical(self):
        serial = ext_stability_map.run(self.FLOWS, self.DELAYS,
                                       workers=1)
        parallel = ext_stability_map.run(self.FLOWS, self.DELAYS,
                                         workers=4)
        assert serial == parallel

    def test_stability_map_cached_identical(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        serial = ext_stability_map.run(self.FLOWS, self.DELAYS)
        cold = ext_stability_map.run(self.FLOWS, self.DELAYS,
                                     cache=cache)
        warm = ext_stability_map.run(self.FLOWS, self.DELAYS,
                                     cache=cache)
        assert serial == cold == warm
        assert cache.stats.hits == len(self.FLOWS)

    def test_fct_study_parallel_identical(self):
        kwargs = {"loads": (0.3, 0.6), "protocols": ("dcqcn",),
                  "duration": 0.01, "drain": 0.01, "n_pairs": 2,
                  "warmup": 0.0}
        serial = fct_study.run_load_sweep(workers=1, **kwargs)
        parallel = fct_study.run_load_sweep(workers=4, **kwargs)
        assert set(serial) == set(parallel)
        for protocol in serial:
            for left, right in zip(serial[protocol],
                                   parallel[protocol]):
                assert left.summary == right.summary
                assert left.small_fcts == right.small_fcts
                assert np.array_equal(left.queue_bytes,
                                      right.queue_bytes)
                assert left.completed == right.completed
                assert left.utilization == right.utilization


class TestRegistryUniformKwargs:
    def test_non_sweep_experiment_accepts_perf_kwargs(self):
        from repro.experiments.registry import _uniform_run

        def plain(a, b=2):
            return a + b

        wrapped = _uniform_run(plain)
        assert wrapped(1, workers=4, cache=None) == 3
        assert wrapped(1, b=5) == 6

    def test_sweep_experiment_passes_through(self):
        from repro.experiments.registry import EXPERIMENTS
        rows = EXPERIMENTS["ext_stability_map"].run(
            flow_counts=(1,), delays_us=(4.0,), workers=2)
        assert len(rows) == 1
