"""Resilient sweep execution: policies, quarantine and crash capsules.

The paper's headline artefacts are long parameter sweeps, and a sweep
that dies at cell 97 of 100 -- a hung worker, an OOM kill, a Ctrl-C --
should not cost the 96 finished cells.  Every cell is a deterministic
function of its parameters, so two rules cover it:

* **One store.**  Finished cells survive a crash in the
  :class:`~repro.perf.cache.ResultCache` (``repro run --cache``): each
  ``put`` is fsync'd and renamed into place as the cell completes, so
  rerunning an interrupted sweep with the cache recomputes only the
  cells that are missing, bit-identical to an uninterrupted run.
* **One failure rule.**  A cell that raises would raise again, so it is
  quarantined on its first failure; a cell that outlives its
  wall-clock budget is quarantined on its first timeout.  Only a lost
  worker process is re-dispatched (a fixed number of times), because
  a pool breakage also kills the innocent cells in flight with it.

This module holds the pieces :class:`~repro.perf.sweep.SweepRunner`
composes into that contract:

:class:`ResiliencePolicy`
    Attaching one turns a failing cell into a quarantined slot
    instead of an aborted sweep; it sets the per-cell wall-clock
    timeout and where crash capsules are written.

:class:`CellFailure`
    The structured placeholder a quarantined cell leaves in the result
    list.  The sweep completes; the failure is recorded, not fatal.

:class:`CrashCapsule`
    A self-contained replay file written on quarantine: the cell
    function, its exact kwargs (pickled), the code fingerprint, the
    traceback, and the tail of the active run log.
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
from typing import Any, Callable, Dict, List, Optional, Union

from repro.perf.cache import canonicalize, default_cache_dir

#: Capsule storage format; bump when fields change meaning.
CAPSULE_VERSION = 1


def default_capsule_dir() -> Path:
    """Crash capsules live beside the cache: ``<cache root>/capsules``."""
    return default_cache_dir() / "capsules"


@dataclass(frozen=True)
class ResiliencePolicy:
    """How a :class:`~repro.perf.sweep.SweepRunner` handles failure.

    Attaching a policy changes the failure contract of ``map``: a cell
    that raises, times out, or keeps losing its worker yields a
    :class:`CellFailure` placeholder and a :class:`CrashCapsule`
    instead of aborting the sweep.  Without a policy the runner keeps
    its raise-on-first-error behaviour (though pool supervision --
    respawn after ``BrokenProcessPool`` -- is always on).

    Parameters
    ----------
    cell_timeout:
        Wall-clock budget per cell in seconds.  Enforced in parallel
        mode by killing the worker pool and re-dispatching the other
        in-flight cells.  Serial execution cannot preempt a running
        cell, so there it is not enforced at all: the cell runs to
        completion and the sweep emits one ``RuntimeWarning`` saying
        so.
    capsule_dir:
        Where crash capsules are written on quarantine.  None falls
        back to :func:`default_capsule_dir`.
    """

    cell_timeout: Optional[float] = None
    capsule_dir: Optional[Union[str, Path]] = None

    def __post_init__(self) -> None:
        if self.cell_timeout is not None and not self.cell_timeout > 0:
            raise ValueError(
                f"cell_timeout must be positive, got {self.cell_timeout}")

    def resolved_capsule_dir(self) -> Path:
        return Path(self.capsule_dir) if self.capsule_dir is not None \
            else default_capsule_dir()


@dataclass(frozen=True)
class CellFailure:
    """A quarantined cell: the sweep's placeholder for its slot.

    Occupies the failed cell's slot in the ``map`` result list so the
    rest of the sweep stands.  ``kind`` distinguishes how the cell
    died: ``"exception"`` (the function raised), ``"timeout"`` (the
    per-cell wall-clock budget expired) or ``"worker-lost"`` (the
    worker process died -- OOM kill, SIGKILL, hard crash -- on every
    dispatch).
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
    """Pickle + base64 a value for JSON transport.

    Pickle is the same serialization values already cross the process
    -pool boundary with, so a capsule's kwargs decode to exactly the
    objects the sweep passed to the cell.
    """
    return base64.b64encode(
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def decode_value(payload: str) -> Any:
    return pickle.loads(base64.b64decode(payload.encode("ascii")))


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
    in this process -- no pool, no cache -- optionally
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
