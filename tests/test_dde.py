"""DDE integrator: accuracy against known solutions, error handling."""

import math

import numpy as np
import pytest

from repro.core.fluid import dde
from repro.core.fluid.base import FluidModel, FluidTrace


class ExponentialDecay(FluidModel):
    """dx/dt = -x; solution x(t) = exp(-t)."""

    def initial_state(self):
        return np.array([1.0])

    def derivatives(self, t, state, history):
        return [-x for x in state]

    def state_labels(self):
        return ["x"]


class DelayedNegativeFeedback(FluidModel):
    """dx/dt = -x(t - tau) with constant pre-history 1.

    For t in [0, tau] the exact solution is x(t) = 1 - t (the delayed
    term is the constant pre-history).
    """

    def __init__(self, tau: float):
        self.tau = tau

    def initial_state(self):
        return np.array([1.0])

    def derivatives(self, t, state, history):
        return [-history.component(t - self.tau, 0)]

    def state_labels(self):
        return ["x"]


class ClampedGrowth(FluidModel):
    """dx/dt = +10 with an upper bound of 1.0 -- exercises bounds()."""

    def initial_state(self):
        return np.array([0.0])

    def derivatives(self, t, state, history):
        return [10.0]

    def state_labels(self):
        return ["x"]

    def bounds(self):
        return [-math.inf], [1.0]


class Diverging(FluidModel):
    """dx/dt = x^2 from 1 -- blows up at t = 1."""

    def initial_state(self):
        return np.array([1.0])

    def derivatives(self, t, state, history):
        return [x * x for x in state]

    def state_labels(self):
        return ["x"]


class TestAccuracy:
    @pytest.mark.parametrize("method,tolerance", [
        ("euler", 1e-2), ("heun", 1e-4), ("rk4", 1e-6)])
    def test_exponential_decay(self, method, tolerance):
        trace = dde.integrate(ExponentialDecay(), t_end=1.0, dt=1e-3,
                              method=method)
        assert trace.final("x") == pytest.approx(math.exp(-1.0),
                                                 abs=tolerance)

    def test_order_improves_with_method(self):
        errors = {}
        for method in ("euler", "heun", "rk4"):
            trace = dde.integrate(ExponentialDecay(), t_end=1.0,
                                  dt=1e-2, method=method)
            errors[method] = abs(trace.final("x") - math.exp(-1.0))
        assert errors["rk4"] < errors["heun"] < errors["euler"]

    def test_halving_dt_reduces_heun_error_fourfold(self):
        coarse = dde.integrate(ExponentialDecay(), 1.0, dt=2e-2,
                               method="heun")
        fine = dde.integrate(ExponentialDecay(), 1.0, dt=1e-2,
                             method="heun")
        err_coarse = abs(coarse.final("x") - math.exp(-1.0))
        err_fine = abs(fine.final("x") - math.exp(-1.0))
        assert err_coarse / err_fine == pytest.approx(4.0, rel=0.3)

    def test_delayed_feedback_linear_phase(self):
        tau = 0.5
        trace = dde.integrate(DelayedNegativeFeedback(tau), t_end=0.5,
                              dt=1e-3, method="heun")
        # x(t) = 1 - t on [0, tau].
        assert trace.final("x") == pytest.approx(0.5, abs=1e-6)
        mid = trace.column("x")[len(trace) // 2]
        assert mid == pytest.approx(1.0 - trace.times[len(trace) // 2],
                                    abs=1e-6)

    def test_delayed_feedback_oscillates_for_large_delay(self):
        # tau > pi/2 destabilizes dx/dt = -x(t - tau): the tail swings
        # past zero instead of settling.
        trace = dde.integrate(DelayedNegativeFeedback(2.0), t_end=30.0,
                              dt=5e-3, method="heun")
        tail = trace.tail("x", 10.0)
        assert tail.min() < -0.5
        assert tail.max() > 0.5


class TestMechanics:
    def test_clamp_applied_each_step(self):
        trace = dde.integrate(ClampedGrowth(), t_end=1.0, dt=1e-2)
        assert trace.column("x").max() <= 1.0 + 1e-12
        assert trace.final("x") == pytest.approx(1.0)

    def test_record_stride_thins_output(self):
        full = dde.integrate(ExponentialDecay(), 1.0, dt=1e-3)
        thin = dde.integrate(ExponentialDecay(), 1.0, dt=1e-3,
                             record_stride=10)
        assert len(thin) == (len(full) - 1) // 10 + 1

    def test_initial_state_override(self):
        trace = dde.integrate(ExponentialDecay(), 0.5, dt=1e-3,
                              initial_state=np.array([2.0]))
        assert trace.column("x")[0] == pytest.approx(2.0)
        assert trace.final("x") == pytest.approx(2 * math.exp(-0.5),
                                                 abs=1e-3)

    def test_divergence_raises(self):
        with pytest.raises(FloatingPointError):
            dde.integrate(Diverging(), t_end=2.0, dt=1e-3)

    def test_available_methods(self):
        assert set(dde.available_methods()) == {"euler", "heun", "rk4"}

    @pytest.mark.parametrize("kwargs", [
        dict(dt=-1e-3), dict(t_end=0.0), dict(record_stride=0),
        dict(method="rk45")])
    def test_argument_validation(self, kwargs):
        base = dict(t_end=1.0, dt=1e-3, method="heun", record_stride=1)
        base.update(kwargs)
        with pytest.raises(ValueError):
            dde.integrate(ExponentialDecay(), **base)

    @pytest.mark.parametrize("name, kwargs", [
        ("t_end", dict(t_end=math.nan)),
        ("t_end", dict(t_end=math.inf)),
        ("dt", dict(dt=math.nan)),
        ("t_start", dict(t_start=-math.inf)),
        ("initial_state", dict(initial_state=np.array([math.nan]))),
    ], ids=["nan_t_end", "inf_t_end", "nan_dt", "inf_t_start",
            "nan_initial_state"])
    def test_non_finite_argument_rejected(self, name, kwargs):
        base = dict(t_end=1.0, dt=1e-3)
        base.update(kwargs)
        with pytest.raises(ValueError, match=name):
            dde.integrate(ExponentialDecay(), **base)

    def test_wrong_initial_state_shape_rejected(self):
        with pytest.raises(ValueError):
            dde.integrate(ExponentialDecay(), 1.0, dt=1e-3,
                          initial_state=np.array([1.0, 2.0]))


class TestFluidTrace:
    def make_trace(self):
        times = np.linspace(0, 1, 11)
        states = np.column_stack([times, times ** 2])
        return FluidTrace(times, states, ["a", "b"])

    def test_column_lookup(self):
        trace = self.make_trace()
        assert trace.column("b")[-1] == pytest.approx(1.0)

    def test_unknown_label_raises(self):
        with pytest.raises(KeyError):
            self.make_trace().column("zzz")

    def test_tail_mean_and_std(self):
        trace = self.make_trace()
        assert trace.tail_mean("a", 0.2) == pytest.approx(0.9, abs=1e-9)
        assert trace.tail_std("a", 0.0) == pytest.approx(0.0)

    def test_subsample(self):
        trace = self.make_trace().subsample(2)
        assert len(trace) == 6

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            FluidTrace(np.array([0.0]), np.array([[1.0, 2.0]]),
                       ["x", "x"])

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            FluidTrace(np.array([0.0, 1.0]), np.array([[1.0]]), ["x"])

    def test_save_load_roundtrip(self, tmp_path):
        trace = self.make_trace()
        target = tmp_path / "trace.npz"
        trace.save(target)
        loaded = FluidTrace.load(target)
        assert loaded.labels == trace.labels
        assert loaded.times == pytest.approx(trace.times)
        assert loaded.states == pytest.approx(trace.states)
        assert loaded.final("b") == trace.final("b")

    def test_saved_integration_reloads(self, tmp_path):
        original = dde.integrate(ExponentialDecay(), 0.5, dt=1e-3)
        target = tmp_path / "decay.npz"
        original.save(target)
        loaded = FluidTrace.load(target)
        assert loaded.tail_mean("x", 0.1) == pytest.approx(
            original.tail_mean("x", 0.1))


class StiffDecay(FluidModel):
    """dx/dt = -k x: explicit euler is stable only for dt < 2/k.

    With k = 3000 and dt = 1e-3 the euler multiplier is -2 per step
    (oscillating blow-up); one halving brings it to -0.5 (stable).
    Exercises the automatic halved-step retry on a model that is
    perfectly well-posed, just under-resolved.
    """

    def __init__(self, k: float = 3000.0):
        self.k = k

    def initial_state(self):
        return np.array([1.0])

    def derivatives(self, t, state, history):
        return [-self.k * x for x in state]

    def state_labels(self):
        return ["x"]


class TestDivergenceGuards:
    def test_error_carries_structured_failure(self):
        with pytest.raises(dde.IntegrationError) as excinfo:
            dde.integrate(Diverging(), t_end=2.0, dt=1e-3,
                          max_retries=0)
        failure = excinfo.value.failure
        assert isinstance(failure, dde.IntegrationFailure)
        assert failure.method == "heun"
        assert failure.dt == pytest.approx(1e-3)
        assert failure.retries == 0
        assert failure.step > 0
        assert failure.time == pytest.approx(failure.step * 1e-3,
                                             rel=1e-6)
        assert "diverged" in str(excinfo.value)

    def test_halved_step_retry_rescues_stiff_model(self):
        model = StiffDecay()
        with pytest.raises(dde.IntegrationError):
            dde.integrate(model, t_end=0.05, dt=1e-3, method="euler",
                          max_retries=0)
        trace = dde.integrate(model, t_end=0.05, dt=1e-3,
                              method="euler", max_retries=1)
        # Rescued at dt/2, and the solution actually decays.
        assert abs(trace.final("x")) < 1.0
        assert np.all(np.isfinite(trace.states))

    def test_retries_exhausted_reports_final_attempt(self):
        with pytest.raises(dde.IntegrationError) as excinfo:
            dde.integrate(Diverging(), t_end=2.0, dt=1e-3,
                          max_retries=2)
        failure = excinfo.value.failure
        assert failure.retries == 2
        assert failure.dt == pytest.approx(2.5e-4)  # halved twice

    def test_divergence_limit_trips_before_overflow(self):
        with pytest.raises(dde.IntegrationError) as excinfo:
            dde.integrate(Diverging(), t_end=2.0, dt=1e-3,
                          max_retries=0, divergence_limit=10.0)
        failure = excinfo.value.failure
        assert "divergence limit" in failure.cause
        assert np.max(np.abs(failure.state)) > 10.0

    def test_divergence_limit_none_waits_for_nonfinite(self):
        with pytest.raises(dde.IntegrationError) as excinfo:
            dde.integrate(Diverging(), t_end=2.0, dt=1e-3,
                          max_retries=0, divergence_limit=None)
        assert "finite" in excinfo.value.failure.cause

    def test_max_retries_validation(self):
        with pytest.raises(ValueError):
            dde.integrate(ExponentialDecay(), t_end=1.0, dt=1e-3,
                          max_retries=-1)

    def test_healthy_integration_untouched_by_guards(self):
        trace = dde.integrate(ExponentialDecay(), t_end=1.0, dt=1e-3)
        assert trace.final("x") == pytest.approx(math.exp(-1.0),
                                                 abs=1e-3)


class NaNAt(FluidModel):
    """Five decaying components; ``column``'s derivative turns NaN from
    ``t = 2 dt`` on, as a model's algebra would on a 0/0."""

    def __init__(self, column: int, dt: float):
        self.column = column
        self.trigger = 2.0 * dt

    def initial_state(self):
        return np.arange(1.0, 6.0)

    def derivatives(self, t, state, history):
        out = [-x for x in state]
        if t >= self.trigger:
            out[self.column] = math.nan
        return out

    def state_labels(self):
        return [f"x{i}" for i in range(5)]


class Copies(FluidModel):
    """``[x, y_1..y_k]`` with x' = 1 and y_i' = y_i^2 from 1 (blowing up
    at t = 1); identical ``y`` reduce to the core ``[x, y]``."""

    def __init__(self, copies: int, reduce: bool = True):
        self.copies = copies
        self.reduce = reduce

    def initial_state(self):
        return np.array([0.0] + [1.0] * self.copies)

    def derivatives(self, t, state, history):
        return [1.0] + [y * y for y in state[1:]]

    def state_labels(self):
        return ["x"] + [f"y{i}" for i in range(self.copies)]

    def reduced(self, initial):
        if not self.reduce:
            return None
        columns = np.array([0] + [1] * self.copies)
        return Copies(1, reduce=False), initial[:2], columns


_SPECIALS = [-1e9, -0.0, 0.0, 1.0, 1e12, math.inf, -math.inf, math.nan]


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@pytest.mark.parametrize("method", ["euler", "heun", "rk4"])
class TestFloatIntegrator:
    """The float stepping loop: per-element divergence and bounds."""

    @pytest.mark.parametrize("column", [0, 2, 4],
                             ids=["first", "middle", "last"])
    def test_nan_in_any_column_raises(self, method, column):
        with pytest.raises(dde.IntegrationError) as caught:
            dde.integrate(NaNAt(column, 1e-3), 1.0, dt=1e-3,
                          method=method, max_retries=0)
        failure = caught.value.failure
        # Euler first evaluates at t = 2 dt in step 3, the others in
        # the last stage of step 2.
        assert failure.step == (3 if method == "euler" else 2)
        assert "non-finite" in failure.cause
        assert np.isnan(failure.state[column])
        assert np.isfinite(np.delete(failure.state, column)).all()

    def test_inf_without_limit_raises(self, method):
        with pytest.raises(dde.IntegrationError) as caught:
            dde.integrate(Diverging(), t_end=2.0, dt=1e-3, method=method,
                          max_retries=0, divergence_limit=None)
        failure = caught.value.failure
        assert "non-finite" in failure.cause
        assert np.isinf(failure.state).any()

    def test_explicit_infinite_limit_still_trips_on_inf(self, method):
        with pytest.raises(dde.IntegrationError):
            dde.integrate(Diverging(), t_end=2.0, dt=1e-3, method=method,
                          max_retries=0, divergence_limit=math.inf)

    @pytest.mark.parametrize("limit", [None, 10.0])
    def test_core_failure_state_in_full_layout(self, method, limit):
        failures = []
        for model in (Copies(4), Copies(4, reduce=False)):
            with pytest.raises(dde.IntegrationError) as caught:
                dde.integrate(model, 2.0, dt=1e-3, method=method,
                              max_retries=0, divergence_limit=limit)
            failures.append(caught.value.failure)
        core, full = failures
        assert core.state.shape == (5,)
        assert np.array_equal(_bits(core.state), _bits(full.state))
        assert str(core) == str(full)

    def test_core_trace_in_full_layout(self, method):
        core = dde.integrate(Copies(3), 0.5, dt=1e-3, method=method)
        full = dde.integrate(Copies(3, reduce=False), 0.5, dt=1e-3,
                             method=method)
        assert core.labels == full.labels
        assert np.array_equal(_bits(core.states), _bits(full.states))

    def test_bounds_match_maximum_then_minimum(self, method,
                                               integrator_bounded):
        # Every pair of bounds drawn from the specials (lower <= upper),
        # against numpy's bound-first composition, bit for bit: NaN
        # passes, and a value equal to a bound keeps its own zero sign.
        edges = [-math.inf, -1.0, -0.0, 0.0, 1.0, math.inf]
        pairs = [(lo, up) for lo in edges for up in edges if lo <= up]

        class Bounded:
            def bounds(self):
                return ([lo for lo, _ in pairs for _ in _SPECIALS],
                        [up for _, up in pairs for _ in _SPECIALS])

        values = _SPECIALS * len(pairs)
        lower, upper = (np.array(side) for side in Bounded().bounds())
        want = np.minimum(upper, np.maximum(lower, np.array(values)))
        got = integrator_bounded(Bounded(), values, method)
        assert np.array_equal(_bits(got), _bits(want))
