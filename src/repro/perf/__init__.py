"""Performance layer: parallel sweeps, result caching, resilience.

The paper's artefacts are dense parameter grids, small enough for one
machine; this package runs them there:

* :class:`~repro.perf.sweep.SweepRunner` is the one place sweep cells
  run: serially in-process, or fanned out over a supervised local
  process pool (``workers=``), with deterministic per-cell seeding
  via :func:`~repro.perf.sweep.derive_seed`;
* :class:`~repro.perf.cache.ResultCache` memoizes cell results on disk,
  keyed by experiment id, canonical parameters, and a fingerprint of
  the package sources;
* :mod:`repro.perf.resilience` makes long sweeps survivable:
  :class:`~repro.perf.resilience.ResiliencePolicy` adds per-cell
  timeouts, bounded retries with backoff and poison-cell quarantine
  (:class:`~repro.perf.resilience.CellFailure`), the
  :class:`~repro.perf.resilience.SweepJournal` gives crash-surviving
  ``--resume``, and :class:`~repro.perf.resilience.CrashCapsule` +
  ``repro replay`` reproduce terminal cell failures deterministically.

Speed is measured end to end by ``e2ebench/`` at the repository root
(see ``docs/PERFORMANCE.md``), not by micro-benchmarks in this
package.
"""

from repro.perf.cache import (CacheStats, ResultCache, canonicalize,
                              code_fingerprint, default_cache_dir,
                              params_key)
from repro.perf.resilience import (CellFailure, CrashCapsule,
                                   ReplayResult, ResiliencePolicy,
                                   SweepJournal, collect_failures,
                                   default_capsule_dir,
                                   default_journal_dir, is_failure,
                                   journal_for, process_shard,
                                   replay_capsule)
from repro.perf.sweep import (SweepRunner, derive_seed,
                              effective_cpu_count, resolve_workers)

__all__ = [
    "CacheStats",
    "CellFailure",
    "CrashCapsule",
    "ReplayResult",
    "ResiliencePolicy",
    "ResultCache",
    "SweepJournal",
    "SweepRunner",
    "canonicalize",
    "code_fingerprint",
    "collect_failures",
    "default_cache_dir",
    "default_capsule_dir",
    "default_journal_dir",
    "derive_seed",
    "effective_cpu_count",
    "is_failure",
    "journal_for",
    "params_key",
    "process_shard",
    "replay_capsule",
    "resolve_workers",
]
