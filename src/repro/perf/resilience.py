"""Resilient sweep execution: policies, journals and crash capsules.

The paper's headline artefacts are hours-long parameter sweeps, and a
sweep that dies at cell 97 of 100 -- a hung worker, an OOM kill, a
Ctrl-C -- should not cost the 96 finished cells.  This module holds
the pieces :class:`~repro.perf.sweep.SweepRunner` composes into a
fault-tolerant execution layer:

:class:`ResiliencePolicy`
    What the runner is allowed to do about a misbehaving cell:
    per-cell wall-clock timeouts, bounded retries with exponential
    backoff, how many pool breakages to survive before degrading the
    worker count, and where journals and crash capsules live.

:class:`SweepJournal`
    An append-only JSONL record of completed cells, living beside the
    :class:`~repro.perf.cache.ResultCache` and keyed the same way --
    params hash + code fingerprint -- so an interrupted sweep resumes
    exactly where it stopped and a resumed run is bit-identical to an
    uninterrupted one (values are round-tripped through pickle, the
    same serialization the process pool itself uses).

:class:`CellFailure`
    The structured placeholder a poisoned cell leaves in the result
    list once it has exhausted its retries.  The sweep completes; the
    failure is quarantined, not fatal.

:class:`CrashCapsule`
    A self-contained replay file written on terminal cell failure:
    the cell function, its exact kwargs (pickled), the code
    fingerprint, the traceback, and the tail of the active run log.
    ``python -m repro replay CAPSULE`` re-executes exactly that cell
    serially under full telemetry for debugging.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import os
import pickle
import time
import traceback as _traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, List, Optional, Tuple,
                    Union)

from repro.perf.cache import (canonicalize, code_fingerprint,
                              default_cache_dir)

#: Capsule/journal storage format; bump when fields change meaning.
CAPSULE_VERSION = 1
JOURNAL_VERSION = 1


def default_journal_dir() -> Path:
    """Journals live beside the result cache: ``<cache root>/journals``."""
    return default_cache_dir() / "journals"


def default_capsule_dir() -> Path:
    """Crash capsules live beside the cache: ``<cache root>/capsules``."""
    return default_cache_dir() / "capsules"


@dataclass(frozen=True)
class ResiliencePolicy:
    """How a :class:`~repro.perf.sweep.SweepRunner` handles failure.

    Attaching a policy changes the failure contract of ``map``: a cell
    that exhausts ``max_retries`` yields a :class:`CellFailure`
    placeholder (and, when enabled, a :class:`CrashCapsule`) instead
    of aborting the sweep.  Without a policy the runner keeps its
    original raise-on-first-error behaviour (though pool supervision
    -- respawn after ``BrokenProcessPool`` -- is always on).

    Parameters
    ----------
    cell_timeout:
        Per-attempt wall-clock budget in seconds.  Enforced in
        parallel mode by killing the worker pool and re-dispatching
        the other in-flight cells.  Serial execution cannot preempt a
        running cell, so there it is not enforced at all: the cell
        runs to completion and the sweep emits one
        ``RuntimeWarning`` saying so.
    max_retries:
        Re-attempts after the first failure before quarantine.
    backoff_base / backoff_factor / backoff_max:
        Exponential backoff between attempts of the *same* cell:
        attempt ``k`` (0-based failure count) waits
        ``min(backoff_max, backoff_base * backoff_factor**k)``.
        Other cells keep executing during the wait.
    max_pool_respawns:
        Pool breakages (``BrokenProcessPool``) tolerated at a given
        worker count; one more halves the worker count, bottoming out
        at serial execution.
    journal_dir:
        When set, completed cells are journaled here (one JSONL file
        per experiment id) and previously journaled cells are skipped
        on the next run -- the ``--resume`` machinery.
    capsule_dir:
        Where crash capsules are written on terminal failure.  None
        falls back to :func:`default_capsule_dir`; ``write_capsules``
        False disables them entirely.
    sleep:
        Injection point for tests; production code leaves it alone.
    """

    cell_timeout: Optional[float] = None
    max_retries: int = 1
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    max_pool_respawns: int = 3
    journal_dir: Optional[Union[str, Path]] = None
    capsule_dir: Optional[Union[str, Path]] = None
    write_capsules: bool = True
    sleep: Callable[[float], None] = field(default=time.sleep,
                                           repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError(
                f"cell_timeout must be positive, got {self.cell_timeout}")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.max_pool_respawns < 0:
            raise ValueError(f"max_pool_respawns must be >= 0, "
                             f"got {self.max_pool_respawns}")

    def backoff(self, failures: int) -> float:
        """Seconds to wait after the ``failures``-th failure (1-based)."""
        if failures <= 0:
            return 0.0
        return min(self.backoff_max,
                   self.backoff_base
                   * self.backoff_factor ** (failures - 1))

    def resolved_capsule_dir(self) -> Path:
        return Path(self.capsule_dir) if self.capsule_dir is not None \
            else default_capsule_dir()


@dataclass(frozen=True)
class CellFailure:
    """A cell that exhausted its retries; the sweep's quarantine entry.

    Occupies the failed cell's slot in the ``map`` result list so the
    rest of the sweep stands.  ``kind`` distinguishes how the cell
    died: ``"exception"`` (the function raised), ``"timeout"`` (the
    per-cell wall-clock budget expired) or ``"worker-lost"`` (the
    worker process died -- OOM kill, SIGKILL, hard crash).
    """

    experiment_id: str
    index: int
    params: Dict[str, Any]
    kind: str
    error_type: str
    error_message: str
    attempts: int
    traceback: str = ""
    capsule_path: Optional[str] = None

    def __str__(self) -> str:
        where = f"{self.experiment_id}[{self.index}]"
        return (f"CellFailure({where}, {self.kind}: {self.error_type}"
                f": {self.error_message!r} after {self.attempts} "
                f"attempt(s))")


def is_failure(value: Any) -> bool:
    """Whether a sweep result slot holds a quarantined failure."""
    return isinstance(value, CellFailure)


def collect_failures(result: Any) -> List[CellFailure]:
    """Walk an experiment result for quarantined cells.

    Experiments return lists, dicts-of-lists and nested tuples of
    result dataclasses; this digs :class:`CellFailure` placeholders
    out of any such container so callers (the CLI, tests) can report
    partial sweeps without knowing each experiment's result shape.
    """
    failures: List[CellFailure] = []
    if isinstance(result, CellFailure):
        failures.append(result)
    elif isinstance(result, dict):
        for value in result.values():
            failures.extend(collect_failures(value))
    elif isinstance(result, (list, tuple, set)):
        for value in result:
            failures.extend(collect_failures(value))
    return failures


# -- value serialization ------------------------------------------------------


def encode_value(value: Any) -> str:
    """Pickle + base64 a cell value for JSON transport.

    Pickle is the same serialization results already cross the process
    -pool boundary with, so anything a parallel sweep can return, a
    journal can store -- and the decoded object is the same object the
    pool would have delivered (bit-identical resume).
    """
    return base64.b64encode(
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def decode_value(payload: str) -> Any:
    return pickle.loads(base64.b64decode(payload.encode("ascii")))


# -- the sweep journal --------------------------------------------------------


class SweepJournal:
    """Append-only JSONL record of completed (and failed) sweep cells.

    One journal file per experiment id, one JSON object per line.
    Lines are flushed and fsync'd as they are written, so the journal
    on disk is always a valid prefix of the sweep -- a SIGKILL can
    lose at most the line being written, and the loader tolerates that
    torn tail the same way :func:`repro.obs.runlog.read_events` does.

    Entries carry the code fingerprint they were computed under;
    loading skips entries whose fingerprint does not match (editing
    any source file orphans the journal, exactly like the result
    cache).

    Concurrent-writer safety (two resuming runs sharing one cache
    dir): two processes appending to one JSONL file can interleave
    torn records, so each writer may claim a private *shard* --
    ``shard="host-123"`` writes to ``<stem>-host-123<suffix>`` --
    while **reads always merge** the base file plus every sibling
    shard.  One process per shard means every individual file keeps
    the single-writer append-only invariant, and any reader sees the
    union.  So shards do not accumulate one
    file per process forever, :meth:`compact` folds them back into
    the base file once a sweep completes.
    """

    def __init__(self, path: Union[str, Path],
                 fingerprint: Optional[str] = None,
                 shard: Optional[str] = None):
        self.path = Path(path)
        self.shard = shard
        #: Where this instance appends; reads merge all shards.
        self.write_path = self.path if shard is None \
            else self.path.with_name(
                f"{self.path.stem}-{shard}{self.path.suffix}")
        self.fingerprint = fingerprint or code_fingerprint()
        self._stream = None
        #: key -> encoded value, loaded from pre-existing files.
        self.completed: Dict[str, str] = {}
        #: keys recorded as terminally failed in a previous run.
        self.failed: Dict[str, dict] = {}
        self._stale_entries = 0
        self._torn_lines = 0
        self._load()

    # -- reading ---------------------------------------------------------

    def _shard_paths(self) -> "List[Path]":
        """The base journal plus every sibling shard, base first."""
        paths = [self.path]
        try:
            siblings = sorted(self.path.parent.glob(
                f"{self.path.stem}-*{self.path.suffix}"))
        except OSError:
            siblings = []
        paths.extend(siblings)
        return paths

    def _load(self) -> None:
        for path in self._shard_paths():
            if path.exists():
                self._load_file(path)

    def _parse_entries(self, path: Path) -> "List[dict]":
        """One file's valid current-fingerprint entries, in order.

        Applies the load tolerances -- a torn *final* line is
        skipped (the writer died mid-event), stale versions and
        foreign fingerprints are counted and dropped -- and raises
        on mid-file corruption, which an append-only writer cannot
        produce.
        """
        entries: List[dict] = []
        lines = path.read_text(encoding="utf-8").splitlines()
        last_content = -1
        for index, line in enumerate(lines):
            if line.strip():
                last_content = index
        for index, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                if index != last_content:
                    raise
                self._torn_lines += 1
                continue  # torn final line: the writer died mid-event
            if entry.get("version") != JOURNAL_VERSION \
                    or entry.get("fingerprint") != self.fingerprint:
                self._stale_entries += 1
                continue
            entries.append(entry)
        return entries

    def _load_file(self, path: Path) -> None:
        for entry in self._parse_entries(path):
            kind = entry.get("type")
            if kind == "cell_done":
                self.completed[entry["key"]] = entry["value"]
                # A later success supersedes an earlier failure.
                self.failed.pop(entry["key"], None)
            elif kind == "cell_failed":
                self.failed[entry["key"]] = entry

    def lookup(self, key: str) -> Tuple[bool, Any]:
        """Return ``(hit, value)`` for a journaled completed cell."""
        payload = self.completed.get(key)
        if payload is None:
            return False, None
        return True, decode_value(payload)

    @property
    def stale_entries(self) -> int:
        """Entries ignored at load (old fingerprint or version)."""
        return self._stale_entries

    @property
    def torn_lines(self) -> int:
        """Truncated trailing lines tolerated at load."""
        return self._torn_lines

    # -- writing ---------------------------------------------------------

    def _write(self, entry: dict) -> None:
        if self._stream is None:
            self.write_path.parent.mkdir(parents=True, exist_ok=True)
            self._stream = open(self.write_path, "a",
                                encoding="utf-8")
        self._stream.write(json.dumps(entry, sort_keys=True) + "\n")
        self._stream.flush()
        os.fsync(self._stream.fileno())

    def record_cell(self, experiment_id: str, key: str, value: Any,
                    attempts: int, elapsed: float) -> None:
        """Journal one completed cell atomically (append + fsync)."""
        payload = encode_value(value)
        self._write({"version": JOURNAL_VERSION, "type": "cell_done",
                     "experiment": experiment_id, "key": key,
                     "fingerprint": self.fingerprint,
                     "attempts": attempts,
                     "elapsed_s": round(float(elapsed), 6),
                     "ts": time.time(), "value": payload})
        self.completed[key] = payload

    def record_failure(self, failure: CellFailure, key: str) -> None:
        """Journal a terminal cell failure (informational: a resumed
        run re-attempts the cell -- a fresh environment may succeed)."""
        entry = {"version": JOURNAL_VERSION, "type": "cell_failed",
                 "experiment": failure.experiment_id, "key": key,
                 "fingerprint": self.fingerprint,
                 "kind": failure.kind,
                 "error_type": failure.error_type,
                 "error_message": failure.error_message,
                 "attempts": failure.attempts,
                 "capsule": failure.capsule_path,
                 "ts": time.time()}
        self._write(entry)
        self.failed[key] = entry

    def flush(self) -> None:
        if self._stream is not None:
            self._stream.flush()
            os.fsync(self._stream.fileno())

    def compact(self) -> int:
        """Fold every shard into the base file and delete the shards.

        Without compaction a long-lived experiment accumulates one
        ``<stem>-<host>-<pid>`` shard per process that ever journaled
        it, slowing every subsequent open.  Called on successful
        sweep completion, this rewrites the base journal with the
        merged view (atomic tmp + fsync + rename), unlinks the
        absorbed shard files, and returns how many were absorbed.

        Entries under a stale version or foreign fingerprint are
        dropped -- they are skipped at load anyway (editing any
        source file orphans the journal, exactly like the cache), so
        compaction doubles as garbage collection.  Concurrency: a
        shard unlinked under a still-live writer silently drops that
        writer's *later* appends, which costs a recompute on the
        next resume, never correctness -- acceptable for the
        end-of-sweep call sites this is meant for.
        """
        self.close()
        paths = [path for path in self._shard_paths()
                 if path.exists()]
        shards = [path for path in paths if path != self.path]
        if not shards:
            return 0
        done: Dict[str, dict] = {}
        failed: Dict[str, dict] = {}
        order: List[str] = []
        for path in paths:
            for entry in self._parse_entries(path):
                key = entry.get("key")
                kind = entry.get("type")
                if key is None or kind not in ("cell_done",
                                               "cell_failed"):
                    continue
                if key not in done and key not in failed:
                    order.append(key)
                if kind == "cell_done":
                    done[key] = entry
                    # Mirror load semantics: success supersedes an
                    # earlier failure of the same cell.
                    failed.pop(key, None)
                else:
                    failed[key] = entry
        tmp = self.path.with_name(self.path.name
                                  + f".tmp-{os.getpid()}")
        tmp.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as stream:
            for key in order:
                for entry in (done.get(key), failed.get(key)):
                    if entry is not None:
                        stream.write(json.dumps(entry,
                                                sort_keys=True)
                                     + "\n")
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp, self.path)
        for path in shards:
            try:
                os.unlink(path)
            except OSError:
                pass
        return len(shards)

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def process_shard() -> str:
    """A journal shard name unique to this process: ``<host>-<pid>``."""
    import re
    import socket
    host = re.sub(r"[^A-Za-z0-9_.]+", "_", socket.gethostname())
    return f"{host}-{os.getpid()}"


def journal_for(experiment_id: str,
                journal_dir: Union[str, Path],
                fingerprint: Optional[str] = None,
                shard: Optional[str] = None) -> SweepJournal:
    """Open (creating lazily) the journal for one experiment id.

    ``shard`` directs this process's appends to a private sibling
    file (see :class:`SweepJournal`); pass :func:`process_shard` when
    multiple processes may journal the same experiment concurrently.
    """
    directory = Path(journal_dir)
    return SweepJournal(directory / f"{experiment_id}.journal.jsonl",
                        fingerprint=fingerprint, shard=shard)


# -- crash capsules -----------------------------------------------------------


def _qualified_name(fn: Callable[..., Any]) -> str:
    return f"{fn.__module__}:{fn.__qualname__}"


def _resolve_callable(spec: str) -> Callable[..., Any]:
    """Inverse of :func:`_qualified_name` for module-level functions."""
    import importlib

    module_name, _, qualname = spec.partition(":")
    if not module_name or not qualname:
        raise ValueError(f"malformed callable spec {spec!r}")
    try:
        target: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            target = getattr(target, part)
    except (ImportError, AttributeError) as error:
        raise ValueError(
            f"cannot resolve {spec!r}: {error} (the capsule's cell "
            f"function must be importable, e.g. a module-level "
            f"function -- not defined in a script or REPL)") from error
    if not callable(target):
        raise TypeError(f"{spec} resolved to non-callable {target!r}")
    return target


@dataclass
class CrashCapsule:
    """Everything needed to re-execute one failed sweep cell exactly.

    The kwargs ride along twice: pickled (``kwargs_pickle``) for exact
    replay -- parameter dataclasses, numpy arrays and derived seeds
    survive unchanged -- and canonicalized (``params``) so a human can
    read the capsule without unpickling anything.
    """

    experiment_id: str
    cell_key: str
    fn: str
    kwargs_pickle: str
    params: Dict[str, Any]
    fingerprint: str
    kind: str
    error_type: str
    error_message: str
    traceback: str
    attempts: int
    created_ts: float
    seed: Optional[int] = None
    telemetry_tail: List[dict] = field(default_factory=list)
    version: int = CAPSULE_VERSION

    @classmethod
    def from_failure(cls, fn: Callable[..., Any],
                     kwargs: Dict[str, Any],
                     failure: CellFailure,
                     cell_key: str,
                     fingerprint: str,
                     telemetry_tail: Optional[List[dict]] = None
                     ) -> "CrashCapsule":
        seed = kwargs.get("seed")
        return cls(
            experiment_id=failure.experiment_id,
            cell_key=cell_key,
            fn=_qualified_name(fn),
            kwargs_pickle=encode_value(kwargs),
            params=canonicalize(kwargs),
            fingerprint=fingerprint,
            kind=failure.kind,
            error_type=failure.error_type,
            error_message=failure.error_message,
            traceback=failure.traceback,
            attempts=failure.attempts,
            created_ts=time.time(),
            seed=int(seed) if isinstance(seed, (int,)) else None,
            telemetry_tail=list(telemetry_tail or []))

    def write(self, path: Union[str, Path]) -> Path:
        """Write the capsule atomically (tmp + rename)."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(dataclass_as_dict(self), indent=2,
                             sort_keys=True, default=str)
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_text(payload + "\n", encoding="utf-8")
        os.replace(tmp, target)
        return target

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CrashCapsule":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        version = data.get("version")
        if version != CAPSULE_VERSION:
            raise ValueError(
                f"{path}: capsule version {version!r} not supported "
                f"(expected {CAPSULE_VERSION})")
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{key: value for key, value in data.items()
                      if key in known})

    @property
    def kwargs(self) -> Dict[str, Any]:
        return decode_value(self.kwargs_pickle)

    def resolve(self) -> Callable[..., Any]:
        return _resolve_callable(self.fn)


def dataclass_as_dict(obj: Any) -> dict:
    """`dataclasses.asdict` without deep-copying value payloads."""
    return {f.name: getattr(obj, f.name)
            for f in dataclasses.fields(obj)}


def capsule_path_for(capsule_dir: Union[str, Path],
                     experiment_id: str, cell_key: str) -> Path:
    return Path(capsule_dir) / \
        f"{experiment_id}-{cell_key[:12]}.capsule.json"


@dataclass
class ReplayResult:
    """What :func:`replay_capsule` observed."""

    capsule: CrashCapsule
    reproduced: bool
    value: Any = None
    error_type: Optional[str] = None
    error_message: Optional[str] = None
    traceback: Optional[str] = None
    elapsed_s: float = 0.0

    @property
    def matches_original(self) -> bool:
        """Whether the replay died the same way the sweep cell did."""
        return self.reproduced \
            and self.error_type == self.capsule.error_type


def replay_capsule(path: Union[str, Path],
                   telemetry: Any = None) -> ReplayResult:
    """Re-execute a crash capsule's cell serially.

    Runs the exact pickled kwargs through the original cell function
    in this process -- no pool, no cache, no journal -- optionally
    inside ``telemetry.activate()`` so the replay streams spans,
    metrics, retry events and health findings for debugging.  Returns
    a :class:`ReplayResult`; never raises the cell's own exception
    (the point is to observe it).
    """
    capsule = CrashCapsule.load(path)
    fn = capsule.resolve()
    kwargs = capsule.kwargs

    def attempt() -> ReplayResult:
        started = time.perf_counter()
        try:
            value = fn(**kwargs)
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:
            return ReplayResult(
                capsule=capsule, reproduced=True,
                error_type=type(exc).__name__,
                error_message=str(exc),
                traceback=_traceback.format_exc(),
                elapsed_s=time.perf_counter() - started)
        return ReplayResult(capsule=capsule, reproduced=False,
                            value=value,
                            elapsed_s=time.perf_counter() - started)

    if telemetry is None:
        return attempt()
    from repro.obs.telemetry import Telemetry
    bundle = Telemetry.ensure(
        telemetry, experiment=f"replay-{capsule.experiment_id}")
    with bundle.activate(params=capsule.params):
        result = attempt()
    return result
