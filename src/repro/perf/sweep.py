"""Parallel sweep execution over independent experiment cells.

Every sweep in this package -- phase-margin grids, FCT-vs-load curves,
fault scenarios -- evaluates one *cell function* over a list of
keyword-argument cells with no shared state between cells.  That makes
them embarrassingly parallel: :class:`SweepRunner` fans the cells out
over a :class:`concurrent.futures.ProcessPoolExecutor`, preserves the
input order of results, and optionally memoizes each cell through a
:class:`~repro.perf.cache.ResultCache`.

Dispatch is probe-based: the first cell always runs in-process and is
timed.  Grids too small to repay the pool's spawn cost
(:data:`POOL_SPAWN_COST_S` per worker) finish serially -- identical
results, no pool tax; cheap-but-numerous cells are submitted in
chunks of several cells per future to amortize pickle and dispatch
overhead (:func:`_run_chunk`).

Determinism rules:

* Cell functions must be module-level (picklable) and must derive all
  randomness from their own arguments -- never from global state -- so
  a cell computes the same value no matter which process runs it, and
  ``workers=4`` is bit-identical to ``workers=1``.
* Cells that need per-cell seeds should derive them with
  :func:`derive_seed`, which follows numpy's ``spawn_key`` scheme: the
  derived stream depends only on ``(base_seed, *key)``, not on how
  many cells exist or the order they run in.

Failure handling (see :mod:`repro.perf.resilience`):

* Pool supervision is always on: a worker that dies (OOM kill,
  SIGKILL, hard crash) breaks the executor; the runner respawns it and
  re-dispatches the cells that were in flight.  A cell that is in
  flight for more than :data:`DEFAULT_POOL_RESPAWNS` breakages is
  quarantined under a policy and raises without one.
* Ctrl-C cancels queued cells (``cancel_futures``), terminates the
  worker processes and re-raises -- no orphaned workers.  With a
  cache attached every finished cell is already stored, so rerunning
  with the same cache resumes the sweep.
* Attaching a :class:`~repro.perf.resilience.ResiliencePolicy` adds
  per-cell wall-clock timeouts and quarantine: a cell that raises or
  times out yields a :class:`~repro.perf.resilience.CellFailure`
  placeholder plus a crash capsule on its first failure instead of
  killing the sweep.  Cells are deterministic, so a failed cell is
  never retried.

Worker processes set :data:`WORKER_ENV` so nested sweeps inside a
worker degrade to serial execution instead of oversubscribing the
machine.  If the platform cannot spawn a pool at all (restricted
sandboxes), the runner falls back to serial execution with a warning
-- results are identical either way, only the wall clock differs.
"""

from __future__ import annotations

import dataclasses
import os
import time
import traceback as _traceback
import warnings
from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor,
                                ProcessPoolExecutor, wait as
                                _futures_wait)
from typing import (Any, Callable, Dict, List, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.obs import metrics as _metrics
from repro.obs import spans as _spans
from repro.perf.cache import (ResultCache, canonicalize,
                              code_fingerprint, params_key)
from repro.perf.resilience import (CellFailure, CrashCapsule,
                                   ResiliencePolicy, capsule_path_for)

#: Set in sweep worker processes; nested SweepRunners see it and run
#: serially rather than forking pools of pools.
WORKER_ENV = "REPRO_SWEEP_WORKER"

#: Pool breakages a cell may be in flight for and still be
#: re-dispatched; one more quarantines it (or raises without a policy).
DEFAULT_POOL_RESPAWNS = 3

#: Estimated cost to spawn and warm one pool worker process, seconds
#: (fork/spawn + interpreter + ``import repro``).  The probe-based
#: dispatcher compares the measured per-cell cost against this to
#: decide whether a pool can possibly pay for itself: on an
#: affinity-limited single CPU the default ``ext_stability_map`` grid
#: (11 cells x ~28 ms) ran at 0.76x serial speed with an old runner
#: that spawned four workers it could never amortize.
POOL_SPAWN_COST_S = 0.35

#: Probe time below which cells count as "cheap" and parallel
#: dispatch switches to chunked submission (several cells per pickle)
#: to amortize the per-future IPC overhead.
CHEAP_CELL_S = 0.05

#: Upper bound on cells per chunk, keeping re-dispatch units small
#: enough that a lost worker doesn't strike dozens of cells at once.
MAX_CHUNK = 64

#: Poll period bounds for the supervision loop, seconds.  The loop
#: sleeps inside ``concurrent.futures.wait`` between these bounds so
#: deadlines are noticed promptly without spinning.
_MIN_POLL_S = 0.02
_MAX_POLL_S = 0.25


def derive_seed(base_seed: int, *key: int) -> int:
    """Derive an independent per-cell seed from a base seed and a key.

    Uses ``numpy.random.SeedSequence(base_seed, spawn_key=key)`` -- the
    same construction ``Generator.spawn`` uses -- so distinct keys give
    statistically independent streams and the mapping depends only on
    the values, never on evaluation order.
    """
    sequence = np.random.SeedSequence(
        int(base_seed), spawn_key=tuple(int(part) for part in key))
    return int(sequence.generate_state(1, dtype=np.uint64)[0])


def effective_cpu_count() -> int:
    """CPUs actually available to this process, not the machine total.

    ``os.cpu_count()`` reports every core in the box, which oversells
    a cgroup-limited CI runner or a taskset-pinned job.  Prefer
    ``os.process_cpu_count()`` (3.13+), then the scheduler affinity
    mask, then fall back to the raw count.
    """
    counter = getattr(os, "process_cpu_count", None)
    if counter is not None:
        count = counter()
        if count:
            return count
    if hasattr(os, "sched_getaffinity"):
        try:
            affinity = os.sched_getaffinity(0)
        except OSError:  # pragma: no cover - platform quirk
            affinity = None
        if affinity:
            return len(affinity)
    return os.cpu_count() or 1


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a ``workers`` argument to an effective process count.

    ``None``, 0 and 1 mean serial; negative values mean "one per
    *available* CPU" (see :func:`effective_cpu_count`).  Inside a
    sweep worker process the answer is always 1.
    """
    if os.environ.get(WORKER_ENV):
        return 1
    if workers is None or workers == 0:
        return 1
    if workers < 0:
        return effective_cpu_count()
    return int(workers)


def _run_chunk(payload:
               "Tuple[Callable[..., Any], List[Dict[str, Any]]]"
               ) -> "List[Tuple[str, Any, Any]]":
    """Evaluate several cells in one worker round trip.

    Returns one outcome per cell, in order: ``("ok", wall_seconds,
    value)`` on success, ``("err", exception, traceback_text)`` on
    failure -- per-cell, so one bad cell in a chunk never taints its
    siblings.  Exceptions that refuse to pickle are replaced by a
    ``RuntimeError`` carrying their repr (the traceback text crosses
    regardless).
    """
    import pickle

    fn, cells = payload
    os.environ[WORKER_ENV] = "1"
    outcomes: "List[Tuple[str, Any, Any]]" = []
    for kwargs in cells:
        started = time.perf_counter()
        try:
            value = fn(**kwargs)
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:
            text = _traceback.format_exc()
            try:
                pickle.dumps(exc)
            except Exception:
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            outcomes.append(("err", exc, text))
        else:
            outcomes.append(
                ("ok", time.perf_counter() - started, value))
    return outcomes


def _sweep_event(event: str, **fields: Any) -> None:
    """Append a ``sweep`` event to the active run log, if any."""
    from repro.obs import telemetry as _telemetry
    bundle = _telemetry.current()
    if bundle is None:
        return
    try:
        bundle.run_log.sweep(event, **fields)
    except ValueError:
        pass  # run log already finished/closed


def _telemetry_tail(limit: int = 15) -> List[dict]:
    """Recent run-log events, for embedding into crash capsules."""
    from repro.obs import telemetry as _telemetry
    bundle = _telemetry.current()
    if bundle is None:
        return []
    try:
        from repro.obs.runlog import read_events
        return read_events(bundle.runlog_path)[-limit:]
    except Exception:
        return []


class _Pending:
    """Book-keeping for one not-yet-finished cell."""

    __slots__ = ("index", "cell", "lost")

    def __init__(self, index: int, cell: Dict[str, Any]):
        self.index = index
        self.cell = cell
        #: Pool breakages this cell was in flight for.
        self.lost = 0


class SweepRunner:
    """Maps a cell function over parameter cells, possibly in parallel.

    Parameters
    ----------
    workers:
        Process count (see :func:`resolve_workers`).  Serial execution
        runs the cells in-process in order; parallel execution
        preserves result order regardless of completion order.
    cache:
        Optional :class:`ResultCache`.  Each cell is keyed by the cell
        function's qualified name plus its kwargs; hits skip execution
        entirely and only the missing cells are dispatched.  Each cell
        is stored as it finishes, so the cache is also what resumes an
        interrupted sweep.
    experiment_id:
        Cache namespace (required when ``cache`` is given).
    resilience:
        Optional :class:`~repro.perf.resilience.ResiliencePolicy`.
        When attached, a cell that raises, times out or keeps losing
        its worker is quarantined as a
        :class:`~repro.perf.resilience.CellFailure` placeholder instead
        of aborting the sweep.
    """

    def __init__(self, workers: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 experiment_id: Optional[str] = None,
                 resilience: Optional[ResiliencePolicy] = None):
        if cache is not None and not experiment_id:
            raise ValueError(
                "experiment_id is required when a cache is attached")
        self.workers = resolve_workers(workers)
        self.cache = cache
        self.experiment_id = experiment_id
        self.resilience = resilience

    def _label(self, fn: Callable[..., Any]) -> str:
        return self.experiment_id or getattr(fn, "__name__", "sweep")

    def _cell_params(self, fn: Callable[..., Any],
                     cell: Dict[str, Any]) -> Dict[str, Any]:
        return {"fn": fn, "cell": cell}

    # -- execution ---------------------------------------------------------

    def map(self, fn: Callable[..., Any],
            cells: Sequence[Dict[str, Any]]) -> List[Any]:
        """Evaluate ``fn(**cell)`` for every cell, in input order.

        With a resilience policy attached, slots whose cell failed hold
        :class:`~repro.perf.resilience.CellFailure` placeholders;
        filter with :func:`repro.perf.resilience.is_failure` when a
        sweep is allowed to be partial.
        """
        cells = list(cells)
        label = self._label(fn)
        registry = _metrics.get_registry()
        sweep_started = time.perf_counter()
        with _spans.span(f"sweep:{label}"):
            results: List[Any] = [None] * len(cells)
            pending: List[_Pending] = []
            cached = 0
            for index, cell in enumerate(cells):
                if self.cache is not None:
                    hit, value = self.cache.get(
                        self.experiment_id,
                        self._cell_params(fn, cell))
                    if hit:
                        results[index] = value
                        cached += 1
                        continue
                pending.append(_Pending(index, cell))

            registry.counter("perf.sweep.cells_total").inc(len(cells))
            registry.counter("perf.sweep.cached_cells_total").inc(
                cached)

            if pending:
                def finish(entry: _Pending, value: Any) -> None:
                    results[entry.index] = value
                    if self.cache is not None \
                            and not isinstance(value, CellFailure):
                        self.cache.put(
                            self.experiment_id,
                            self._cell_params(fn, entry.cell), value)

                try:
                    self._execute(fn, pending, finish)
                except KeyboardInterrupt:
                    registry.counter(
                        "perf.sweep.interrupts_total").inc()
                    _sweep_event("interrupted", experiment=label,
                                 completed_cells=sum(
                                     1 for r in results
                                     if r is not None))
                    raise
            # End-of-sweep aggregation point: the sweep's throughput
            # lands in the run log's metrics snapshot.
            sweep_wall = time.perf_counter() - sweep_started
            if sweep_wall > 0:
                registry.gauge("perf.sweep.cells_per_sec").set(
                    len(cells) / sweep_wall)
            return results

    # -- shared failure handling -------------------------------------------

    def _quarantine(self, fn: Callable[..., Any], entry: _Pending,
                    finish: Callable[[_Pending, Any], None],
                    kind: str, error: Optional[BaseException] = None,
                    traceback_text: str = "") -> None:
        """Turn a failed cell into its placeholder slot and capsule.

        ``error`` is None for a lost worker, which has no exception of
        its own to surface.
        """
        policy = self.resilience
        label = self._label(fn)
        if policy is None:
            # No policy, no quarantine: a plain runner keeps its
            # raise-on-failure contract.  Exceptions re-raise at the
            # call site; the only way here is a repeatedly lost
            # worker.
            raise RuntimeError(
                f"sweep cell {label}[{entry.index}] lost its worker "
                f"process {entry.lost} time(s) (OOM kill? hard "
                f"crash?); attach a ResiliencePolicy to quarantine "
                f"poison cells instead of aborting")
        if error is not None and not traceback_text:
            traceback_text = "".join(
                _traceback.format_exception_only(type(error), error))
        # A lost worker was counted in ``entry.lost`` already; an
        # exception or timeout is one more attempt on top.
        attempts = entry.lost + (error is not None)
        failure = CellFailure(
            experiment_id=label,
            index=entry.index,
            params=canonicalize(entry.cell),
            kind=kind,
            error_type=type(error).__name__ if error is not None
            else "WorkerLost",
            error_message=str(error) if error is not None
            else "worker process died",
            attempts=attempts,
            traceback=traceback_text)
        cell_key = params_key(label, self._cell_params(fn, entry.cell))
        fingerprint = self.cache.fingerprint if self.cache \
            else code_fingerprint()
        capsule = CrashCapsule.from_failure(
            fn, entry.cell, failure, cell_key, fingerprint,
            telemetry_tail=_telemetry_tail())
        target = capsule_path_for(policy.resolved_capsule_dir(), label,
                                  cell_key)
        try:
            failure = dataclasses.replace(
                failure, capsule_path=str(capsule.write(target)))
        except OSError as exc:  # unwritable capsule dir: degrade
            warnings.warn(f"could not write crash capsule to "
                          f"{target} ({exc})", RuntimeWarning,
                          stacklevel=2)
        registry = _metrics.get_registry()
        registry.counter("perf.sweep.quarantined_total").inc()
        _sweep_event("cell_quarantined", experiment=label,
                     index=entry.index, kind=failure.kind,
                     error_type=failure.error_type,
                     error_message=failure.error_message,
                     attempts=failure.attempts,
                     capsule=failure.capsule_path)
        finish(entry, failure)

    # -- serial execution --------------------------------------------------

    def _execute(self, fn: Callable[..., Any],
                 pending: List[_Pending],
                 finish: Callable[[_Pending, Any], None]) -> None:
        """Probe-based dispatch: serial, pool, or chunked pool.

        The first cell always runs in-process and is timed.  If the
        measured cost projected over the remaining cells cannot repay
        spawning the pool (:data:`POOL_SPAWN_COST_S` per worker), the
        sweep stays serial -- small grids on small machines no longer
        pay a 0.76x "speedup" for four workers they cannot feed.
        Cheap-but-numerous cells (< :data:`CHEAP_CELL_S`) go to the
        pool in chunks so the per-future pickle/dispatch overhead is
        amortized across several cells.
        """
        policy = self.resilience
        if self.workers <= 1 or len(pending) <= 1:
            if policy is not None and policy.cell_timeout is not None \
                    and not os.environ.get(WORKER_ENV):
                warnings.warn(
                    f"cell_timeout={policy.cell_timeout:g}s is not "
                    f"enforced on a serial sweep; run with 2 or more "
                    f"workers to bound cell wall time",
                    RuntimeWarning, stacklevel=3)
            self._execute_serial(fn, pending, finish)
            return
        if policy is not None and policy.cell_timeout is not None:
            # Wall-clock timeouts can only be enforced by killing a
            # worker process; hang protection outranks spawn cost.
            self._execute_pool(fn, pending, finish)
            return
        probe_started = time.perf_counter()
        self._execute_serial(fn, pending[:1], finish)
        probe_s = time.perf_counter() - probe_started
        remaining = pending[1:]
        width = min(self.workers, len(remaining))
        if probe_s * len(remaining) < POOL_SPAWN_COST_S * width:
            registry = _metrics.get_registry()
            registry.counter(
                "perf.sweep.serial_fallbacks_total").inc()
            _sweep_event(
                "serial_fallback", experiment=self._label(fn),
                probe_s=probe_s, cells=len(remaining),
                workers=self.workers)
            self._execute_serial(fn, remaining, finish)
            return
        chunk = 1
        if probe_s < CHEAP_CELL_S:
            # Target ~4 chunks per worker so stragglers still balance.
            chunk = min(-(-len(remaining) // (width * 4)), MAX_CHUNK)
        self._execute_pool(fn, remaining, finish, chunk=chunk)

    def _execute_serial(self, fn: Callable[..., Any],
                        pending: List[_Pending],
                        finish: Callable[[_Pending, Any], None]) -> None:
        """In-process execution, quarantining failures under a policy.

        A running cell cannot be preempted from within its own
        process, so ``cell_timeout`` is not enforced here -- serial
        mode trades hang protection for zero dispatch overhead
        (:meth:`_execute` warns when a policy asks for one).
        """
        registry = _metrics.get_registry()
        histogram = registry.histogram("perf.sweep.cell_seconds")
        for entry in pending:
            with _spans.span(f"cell[{entry.index}]"):
                started = time.perf_counter()
                try:
                    value = fn(**entry.cell)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as exc:
                    if self.resilience is None:
                        raise
                    self._quarantine(fn, entry, finish, "exception",
                                     exc, _traceback.format_exc())
                    continue
                histogram.observe(time.perf_counter() - started)
                finish(entry, value)

    # -- supervised pool execution -----------------------------------------

    @staticmethod
    def _kill_executor(executor: ProcessPoolExecutor) -> None:
        """Tear a pool down *now*: cancel queued work, kill workers.

        Used on timeout, breakage and Ctrl-C; hung or dead workers
        never outlive the sweep.  The executor object is abandoned
        afterwards.
        """
        processes = list(getattr(executor, "_processes", {}).values())
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        for process in processes:
            try:
                if process.is_alive():
                    process.terminate()
            except Exception:
                pass
        for process in processes:
            try:
                process.join(timeout=2.0)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=1.0)
            except Exception:
                pass

    def _execute_pool(self, fn: Callable[..., Any],
                      pending: List[_Pending],
                      finish: Callable[[_Pending, Any], None],
                      chunk: int = 1) -> None:
        """Supervised fan-out: timeouts, quarantine, respawn.

        ``chunk`` groups that many cells into one worker round trip
        (outcomes stay per-cell; see :func:`_run_chunk`).  Per-cell
        wall-clock timeouts need the future to *be* one cell, so an
        armed ``cell_timeout`` forces ``chunk = 1``.
        """
        policy = self.resilience
        label = self._label(fn)
        registry = _metrics.get_registry()
        histogram = registry.histogram("perf.sweep.cell_seconds")
        timeout = policy.cell_timeout if policy is not None else None
        if timeout is not None:
            chunk = 1
        chunk = max(int(chunk), 1)

        waiting: List[_Pending] = list(pending)
        inflight: Dict[Any, List[_Pending]] = {}
        submitted_at: Dict[Any, float] = {}
        width = min(self.workers, len(pending))
        executor: Optional[ProcessPoolExecutor] = None
        wall_start = time.perf_counter()
        busy = 0.0
        clean_exit = False
        registry.gauge("perf.sweep.workers").set(width)

        def fail(entry: _Pending, exc: BaseException,
                 text: str = "") -> None:
            if policy is None:
                raise exc
            self._quarantine(fn, entry, finish, "exception", exc, text)

        def lose_inflight(struck: bool) -> None:
            """The pool died under its in-flight cells; re-dispatch.

            ``struck`` is True for breakage: any in-flight cell may be
            the killer, so each counts a lost worker.  A deliberate
            timeout kill passes False: the timed-out cell is already
            quarantined and the bystanders re-dispatch free.
            """
            for group in inflight.values():
                for entry in group:
                    if struck:
                        entry.lost += 1
                        registry.counter(
                            "perf.sweep.worker_lost_total").inc()
                        if entry.lost > DEFAULT_POOL_RESPAWNS:
                            self._quarantine(fn, entry, finish,
                                             "worker-lost")
                            continue
                        registry.counter(
                            "perf.sweep.retries_total").inc()
                        _sweep_event("cell_retry", experiment=label,
                                     index=entry.index,
                                     attempt=entry.lost,
                                     error_type="WorkerLost")
                    waiting.append(entry)
            inflight.clear()
            submitted_at.clear()

        try:
            while waiting or inflight:
                if executor is None:
                    try:
                        executor = ProcessPoolExecutor(
                            max_workers=width)
                    except (OSError, PermissionError) as error:
                        warnings.warn(
                            f"process pool unavailable ({error}); "
                            f"sweep falling back to serial execution",
                            RuntimeWarning, stacklevel=2)
                        waiting.sort(key=lambda entry: entry.index)
                        self._execute_serial(fn, waiting, finish)
                        waiting = []
                        clean_exit = True
                        return

                # Submit waiting cells up to pool capacity, ``chunk``
                # cells per future.
                broken = False
                while waiting and len(inflight) < width:
                    group = waiting[:chunk]
                    del waiting[:chunk]
                    try:
                        future = executor.submit(
                            _run_chunk,
                            (fn, [entry.cell for entry in group]))
                    except (BrokenExecutor, RuntimeError):
                        # RuntimeError: shutdown race, treat as
                        # breakage like a broken pool.
                        waiting.extend(group)
                        broken = True
                        break
                    inflight[future] = group
                    submitted_at[future] = time.monotonic()

                if not broken:
                    # How long may wait() block without missing a
                    # deadline?
                    poll = _MAX_POLL_S
                    if timeout is not None:
                        now = time.monotonic()
                        for future in inflight:
                            deadline = submitted_at[future] + timeout
                            poll = min(poll, deadline - now)
                    done, _ = _futures_wait(
                        list(inflight), timeout=max(poll, _MIN_POLL_S),
                        return_when=FIRST_COMPLETED)

                    for future in done:
                        group = inflight.pop(future)
                        submitted_at.pop(future, None)
                        try:
                            outcomes = future.result()
                        except (KeyboardInterrupt, SystemExit):
                            raise
                        except BrokenExecutor:
                            # Put the cells back with the others; the
                            # breakage path below strikes every
                            # in-flight cell uniformly.
                            inflight[future] = group
                            broken = True
                            break
                        except BaseException as exc:
                            # Transport failure (e.g. unpicklable
                            # return value): every cell in the chunk
                            # shares the exception.
                            for entry in group:
                                fail(entry, exc)
                            continue
                        for entry, outcome in zip(group, outcomes):
                            if outcome[0] == "ok":
                                _, elapsed, value = outcome
                                busy += elapsed
                                histogram.observe(elapsed)
                                finish(entry, value)
                            else:
                                _, exc, text = outcome
                                fail(entry, exc, text)

                if broken:
                    registry.counter(
                        "perf.sweep.pool_respawns_total").inc()
                    self._kill_executor(executor)
                    executor = None
                    lose_inflight(struck=True)
                    _sweep_event("pool_respawn", experiment=label,
                                 workers=width)
                    continue

                # Per-cell wall-clock timeouts: a hung worker cannot
                # be interrupted, so the whole pool is killed and the
                # innocent in-flight cells are re-dispatched free.
                if timeout is not None and inflight:
                    now = time.monotonic()
                    expired = [
                        (future, group)
                        for future, group in inflight.items()
                        if now - submitted_at[future] > timeout
                        and not future.done()]
                    if expired:
                        for future, group in expired:
                            inflight.pop(future)
                            submitted_at.pop(future, None)
                            for entry in group:
                                registry.counter(
                                    "perf.sweep.timeouts_total").inc()
                                _sweep_event(
                                    "cell_timeout", experiment=label,
                                    index=entry.index,
                                    attempt=entry.lost + 1,
                                    timeout_s=timeout)
                                self._quarantine(
                                    fn, entry, finish, "timeout",
                                    TimeoutError(
                                        f"cell exceeded {timeout:g}s "
                                        f"wall-clock budget"))
                        registry.counter(
                            "perf.sweep.pool_respawns_total").inc()
                        self._kill_executor(executor)
                        executor = None
                        lose_inflight(struck=False)
            clean_exit = True
        finally:
            if executor is not None:
                if clean_exit:
                    executor.shutdown(wait=True)
                else:
                    self._kill_executor(executor)

        wall = time.perf_counter() - wall_start
        if wall > 0:
            # Fraction of the pool's wall-clock capacity spent inside
            # cell functions; the rest is pickle + dispatch + idle
            # tail (stragglers holding the pool open).
            registry.gauge("perf.sweep.worker_utilization").set(
                busy / (wall * width))
