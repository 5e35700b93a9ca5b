"""Fixed-step integrator for the delay-differential fluid models.

scipy offers no delay-ODE solver, so we integrate the models with a
fixed-step method that records every accepted step into a
:class:`~repro.core.fluid.history.UniformHistory`; delayed terms are
linearly interpolated from that record.  This is the standard "method
of steps" construction for DDEs with delays larger than the step size.

Three stepping schemes are provided:

``euler``
    First order.  Robust for the non-smooth TIMELY right-hand side,
    whose rate law switches between four regimes (Eq. 21).
``heun``
    Second-order predictor/corrector; the default.  A good accuracy /
    cost balance given that the models' switching surfaces limit the
    attainable order anyway.
``rk4``
    Classic fourth order, for smooth regions and convergence testing.

The step size must be well below the smallest delay and time constant:
the paper's fastest dynamics are the 20-55 us update intervals, so the
default ``dt`` of 1 us resolves them comfortably.

All three step the state as a list of Python floats, applying each
model's :meth:`~repro.core.fluid.base.FluidModel.bounds` to every stage
and accepted step; at the models' sizes (4 to a few dozen components)
that is several times cheaper than numpy calls on short arrays, and
each element sees the same IEEE operations in the same order.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.core.fluid.base import FluidModel, FluidTrace, require_finite
from repro.core.fluid.history import UniformHistory
from repro.obs import metrics as _metrics
from repro.obs import spans as _spans

#: Default integration step, seconds.
DEFAULT_DT = 1e-6

#: State magnitude beyond which the integration counts as diverged
#: even while still finite.  The models' states are packets and
#: packets/second -- physically bounded around 1e7 -- so 1e12 only
#: trips on genuine blow-ups, well before float overflow turns them
#: into a late, uninformative ``inf``.
DEFAULT_DIVERGENCE_LIMIT = 1e12

_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class IntegrationFailure:
    """Where and why an integration attempt diverged.

    Carried by :class:`IntegrationError` so callers (experiments,
    sweeps over unstable configurations) can triage programmatically
    instead of parsing an exception string.
    """

    step: int
    time: float
    state: np.ndarray
    cause: str
    method: str
    dt: float
    retries: int

    def __str__(self) -> str:
        return (f"integration diverged at t={self.time:.6g}s "
                f"(step {self.step}, method={self.method}, "
                f"dt={self.dt:g}, after {self.retries} halved-step "
                f"retries): {self.cause}; state={self.state}")


class IntegrationError(FloatingPointError):
    """Integration diverged even after halved-step retries.

    Subclasses ``FloatingPointError`` for compatibility with callers
    that guarded the old bare-exception behaviour; :attr:`failure`
    holds the structured :class:`IntegrationFailure`.
    """

    def __init__(self, failure: IntegrationFailure):
        self.failure = failure
        super().__init__(str(failure))

_STEPPERS = {}


def _register(name: str) -> Callable:
    def decorator(fn: Callable) -> Callable:
        _STEPPERS[name] = fn
        return fn
    return decorator


# A stepper maps the state at ``t`` to the bounded state at ``t + dt``.
# Each element keeps the operation order of the numpy expression in
# its comment, so every method's results equal the array form bit for
# bit.

def _stage(y: List[float], h: float, k: List[float], lower: List[float],
           upper: List[float]) -> List[float]:
    """``y + h * k``, bounded like ``np.minimum(upper, np.maximum(lower,
    .))``: NaN passes through, and a value equal to a bound is returned
    as it is, signed zero included."""
    out = []
    for a, b, lo, up in zip(y, k, lower, upper):
        x = a + h * b
        if lo > x:
            x = lo
        if up < x:
            x = up
        out.append(x)
    return out


@_register("euler")
def _euler_step(rhs: Callable, t: float, y: List[float], dt: float,
                history: UniformHistory, lower: List[float],
                upper: List[float]) -> List[float]:
    # y + dt * k
    return _stage(y, dt, rhs(t, y, history), lower, upper)


@_register("heun")
def _heun_step(rhs: Callable, t: float, y: List[float], dt: float,
               history: UniformHistory, lower: List[float],
               upper: List[float]) -> List[float]:
    # y + 0.5 * dt * (k1 + k2), with k2 at y + dt * k1
    k1 = rhs(t, y, history)
    k2 = rhs(t + dt, _stage(y, dt, k1, lower, upper), history)
    # _stage fused with the sum of the two slopes: the default method
    # saves building that sum as a list.
    half = 0.5 * dt
    out = []
    for a, b, c, lo, up in zip(y, k1, k2, lower, upper):
        x = a + half * (b + c)
        if lo > x:
            x = lo
        if up < x:
            x = up
        out.append(x)
    return out


@_register("rk4")
def _rk4_step(rhs: Callable, t: float, y: List[float], dt: float,
              history: UniformHistory, lower: List[float],
              upper: List[float]) -> List[float]:
    # y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    half = 0.5 * dt
    k1 = rhs(t, y, history)
    k2 = rhs(t + half, _stage(y, half, k1, lower, upper), history)
    k3 = rhs(t + half, _stage(y, half, k2, lower, upper), history)
    k4 = rhs(t + dt, _stage(y, dt, k3, lower, upper), history)
    return _stage(y, dt / 6.0,
                  [b1 + 2.0 * b2 + 2.0 * b3 + b4
                   for b1, b2, b3, b4 in zip(k1, k2, k3, k4)],
                  lower, upper)


def available_methods() -> "list[str]":
    """Names accepted by :func:`integrate`'s ``method`` argument."""
    return sorted(_STEPPERS)


def integrate(model: FluidModel,
              t_end: float,
              dt: float = DEFAULT_DT,
              method: str = "heun",
              record_stride: int = 1,
              t_start: float = 0.0,
              initial_state: Optional[np.ndarray] = None,
              max_retries: int = 1,
              divergence_limit: Optional[float] =
              DEFAULT_DIVERGENCE_LIMIT,
              observer: Optional[Callable[[float, np.ndarray],
                                          None]] = None,
              observer_stride: Optional[int] = None,
              ) -> FluidTrace:
    """Integrate ``model`` from ``t_start`` to ``t_end``.

    Parameters
    ----------
    model:
        The fluid model to integrate.
    t_end:
        Final time, seconds.
    dt:
        Fixed step size, seconds.  Must be positive and smaller than
        the horizon.
    method:
        One of :func:`available_methods`.
    record_stride:
        Keep every n-th sample in the returned trace.  The internal
        history always records every step (the delayed lookups need
        it); this only thins the caller-facing output.
    t_start:
        Start time; the pre-history for ``t < t_start`` is the constant
        initial state.
    initial_state:
        Override for ``model.initial_state()`` -- used by experiments
        that restart a model from a perturbed fixed point.
    max_retries:
        On divergence (NaN/inf or ``divergence_limit`` exceeded), retry
        the whole integration with the step halved, this many times.
        Rescues fixed-step runs whose dt was marginally too coarse for
        a stiff transient; a genuinely unstable model still fails, as
        :class:`IntegrationError` carrying the structured
        :class:`IntegrationFailure` of the final attempt.  0 disables
        retrying.
    divergence_limit:
        Any state component exceeding this magnitude counts as
        divergence even while finite (catches blow-ups hundreds of
        steps before float overflow).  None checks finiteness only.
    observer:
        In-run snapshot hook: ``observer(t, state)`` is called with
        the accepted (bounded) state every ``observer_stride`` steps
        -- the fluid-model twin of the packet simulator's
        ``Simulator.sample_every``.  Health detectors stream from it
        while the integration runs, so a live ``watch`` sees
        pathologies as they develop instead of after the trace
        returns.  ``state`` is a fresh array in the model's full
        layout, also when the model integrates through a smaller
        exact core (:meth:`FluidModel.reduced`).  None (the default)
        skips the hook entirely.  On a halved-step retry the observer
        is re-fed from ``t_start`` -- resettable consumers should
        clear their buffers in that case (``t`` going backwards is
        the signal).
    observer_stride:
        Steps between observer calls; defaults to ``record_stride``.

    Returns
    -------
    FluidTrace
        Sampled state trajectory, including the initial state.
    """
    for name, value in (("t_start", t_start), ("t_end", t_end),
                        ("dt", dt)):
        require_finite(name, value)
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_end <= t_start:
        raise ValueError(
            f"t_end ({t_end}) must exceed t_start ({t_start})")
    if record_stride < 1:
        raise ValueError(f"record_stride must be >= 1, got {record_stride}")
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    if observer_stride is None:
        observer_stride = record_stride
    if observer_stride < 1:
        raise ValueError(
            f"observer_stride must be >= 1, got {observer_stride}")
    try:
        stepper = _STEPPERS[method]
    except KeyError:
        raise ValueError(
            f"unknown method {method!r}; choose from {available_methods()}")

    if initial_state is None:
        initial = np.array(model.initial_state(), dtype=float)
    else:
        initial = np.array(initial_state, dtype=float)
    labels = model.state_labels()
    if initial.shape != (len(labels),):
        raise ValueError(
            f"initial state has shape {initial.shape}, expected "
            f"({len(labels)},) to match state_labels()")
    require_finite("initial_state" if initial_state is not None
                   else "model.initial_state()", initial)

    # Step an exact smaller system when the model offers one, and
    # expand what leaves the integrator back to the full layout.
    columns = None
    reduction = model.reduced(initial)
    if reduction is not None:
        model, initial, columns = reduction
        if observer is not None:
            full_observer = observer

            def observer(t, state):
                full_observer(t, state[columns])

    # Telemetry publishes once per integrate() call / retry / abort
    # -- aggregation points, never inside the stepping loop.  With
    # telemetry off these hit the inert null registry.
    registry = _metrics.get_registry()
    registry.counter("fluid.dde.integrations_total").inc()
    attempt_dt = dt
    with _spans.span("fluid.integrate"):
        for attempt in range(max_retries + 1):
            try:
                return _integrate_once(model, stepper, t_start, t_end,
                                       attempt_dt, record_stride,
                                       initial, labels, columns, method,
                                       divergence_limit,
                                       retries=attempt,
                                       observer=observer,
                                       observer_stride=observer_stride)
            except IntegrationError as error:
                if attempt == max_retries:
                    registry.counter(
                        "fluid.dde.divergence_aborts_total").inc()
                    raise
                registry.counter("fluid.dde.step_retries").inc()
                # The run log (when telemetry is active) records
                # *where* the attempt diverged, not just that one
                # did -- crash capsules embed these events so a
                # replayed cell shows which t the fluid integration
                # struggled at.
                _emit_retry_event(error.failure, attempt_dt)
                attempt_dt *= 0.5
    raise AssertionError("unreachable")  # pragma: no cover


def _emit_retry_event(failure: IntegrationFailure,
                      attempt_dt: float) -> None:
    """Append a ``retry`` event for a halved-step re-attempt."""
    from repro.obs import telemetry as _telemetry

    bundle = _telemetry.current()
    if bundle is None:
        return
    try:
        bundle.run_log.retry(
            component="fluid.dde",
            t=failure.time, step=failure.step, dt=attempt_dt,
            next_dt=attempt_dt * 0.5, method=failure.method,
            cause=failure.cause, attempt=failure.retries + 1)
    except ValueError:
        pass  # run log already finished/closed


def _integrate_once(model: FluidModel, stepper: Callable, t_start: float,
                    t_end: float, dt: float, record_stride: int,
                    initial: np.ndarray, labels,
                    columns: Optional[np.ndarray], method: str,
                    divergence_limit: Optional[float],
                    retries: int,
                    observer: Optional[Callable[[float, np.ndarray],
                                                None]] = None,
                    observer_stride: int = 1) -> FluidTrace:
    """One fixed-step pass; raises :class:`IntegrationError` on blow-up.

    The state is stepped as a list of Python floats.  The history
    buffer is preallocated for the whole horizon (the step count is
    known up front) and receives one row per step; the returned trace
    is a strided copy of that same buffer.  ``columns``, when not None,
    expands a reduced core's states (the trace and a failure's state)
    to the full model's layout.
    """
    state = initial.tolist()
    n_steps = int(round((t_end - t_start) / dt))
    history = UniformHistory(t_start, dt, initial,
                             capacity=n_steps + 1)
    lower, upper = (list(map(float, side)) for side in model.bounds())
    if not len(lower) == len(upper) == len(state):
        raise ValueError(
            f"model.bounds() gives {len(lower)} lower and {len(upper)} "
            f"upper bounds for a state of {len(state)} components")
    # Checked per element: NaN fails both comparisons, and the
    # largest finite float stands in for "no limit" so that inf
    # still trips (Python's max() would skip a NaN).
    limit = _FLOAT_MAX if divergence_limit is None \
        or not divergence_limit < _FLOAT_MAX else divergence_limit
    low = -limit
    rhs = model.derivatives
    append = history.append
    t = t_start
    for step in range(1, n_steps + 1):
        state = stepper(rhs, t, state, dt, history, lower, upper)
        for x in state:
            if not low <= x <= limit:
                _metrics.get_registry().counter(
                    "fluid.dde.steps_total").inc(step)
                failed = np.array(state)
                if columns is not None:
                    failed = failed[columns]
                raise IntegrationError(IntegrationFailure(
                    step=step, time=t + dt, state=failed,
                    cause=_divergence_cause(state, divergence_limit),
                    method=method, dt=dt, retries=retries))
        append(state)
        t = t_start + step * dt
        if observer is not None and step % observer_stride == 0:
            observer(t, np.array(state))

    _metrics.get_registry().counter(
        "fluid.dde.steps_total").inc(n_steps)
    times, states = history.strided_view(record_stride)
    if columns is not None:
        states = np.take(states, columns, axis=1)
    return FluidTrace(times, states, labels)


def _divergence_cause(state: List[float],
                      divergence_limit: Optional[float]) -> str:
    """Why ``state`` failed the per-element divergence check."""
    if not all(math.isfinite(x) for x in state):
        return "non-finite state (NaN or inf)"
    magnitude = max(abs(x) for x in state)
    return (f"state magnitude {magnitude:.3g} exceeded "
            f"divergence limit {divergence_limit:.3g}")
