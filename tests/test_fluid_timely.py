"""TIMELY fluid model: Eq. 20-24 mechanics and limit-cycle behaviour."""

import numpy as np
import pytest

from repro import units
from repro.core.fluid import dde
from repro.core.fluid.history import UniformHistory
from repro.core.fluid.jitter import JitterProcess
from repro.core.fluid.timely import MIN_RATE, TimelyFluidModel
from repro.core.params import PatchedTimelyParams, PIParams, TimelyParams


def make_history(state, dt=1e-6):
    return UniformHistory(0.0, dt, state)


def flat_derivatives(model, queue=0.0, gradient=0.0, rate=None):
    """``model.derivatives`` at t = 0 over a flat history.

    Every flow has gradient ``gradient`` and rate ``rate`` (the initial
    rates by default), and the history holds this state throughout,
    so every delayed queue observation is ``queue`` and Eq. 22's
    sampled difference is 0.
    """
    state = model.initial_state()
    state[model.queue_index] = queue
    state[model.gradient_slice()] = gradient
    if rate is not None:
        state[model.rate_slice()] = rate
    return np.array(model.derivatives(0.0, state.tolist(),
                                      make_history(state)))


def update_interval(model, rate):
    """Eq. 23's ``tau*`` at ``rate``, read off the model's Eq. 22.

    With a flat queue history, ``dg/dt = (0 - g) * alpha / tau*``, so
    at ``g = -1`` the gradient derivative is ``alpha / tau*``.
    """
    dg = flat_derivatives(model, gradient=-1.0, rate=rate)
    return model.params.ewma_alpha / dg[model.gradient_slice()][0]


class TestConstruction:
    def test_state_layout(self, timely_params):
        model = TimelyFluidModel(timely_params)
        labels = model.state_labels()
        assert labels == ["q", "g[0]", "g[1]", "r[0]", "r[1]"]

    def test_default_initial_rates_fair(self, timely_params):
        model = TimelyFluidModel(timely_params)
        state = model.initial_state()
        assert np.all(state[model.rate_slice()] == pytest.approx(
            timely_params.fair_share))

    def test_gradients_start_zero(self, timely_params):
        state = TimelyFluidModel(timely_params).initial_state()
        assert np.all(state[1:3] == 0.0)

    def test_rejects_bad_start_times(self, timely_params):
        with pytest.raises(ValueError):
            TimelyFluidModel(timely_params, start_times=[-1.0, 0.0])
        with pytest.raises(ValueError):
            TimelyFluidModel(timely_params, start_times=[0.0])

    @pytest.mark.parametrize("name, kwargs", [
        ("initial_rates", dict(initial_rates=[np.inf, 1e5])),
        ("initial_queue", dict(initial_queue=np.nan)),
        ("start_times", dict(start_times=[0.0, np.nan])),
        ("noise_amplitude", dict(noise_amplitude=np.nan)),
        ("noise_interval", dict(noise_amplitude=8.0, noise_interval=np.nan)),
        ("initial_p", dict(
            params=PatchedTimelyParams.paper_default(num_flows=2),
            pi=PIParams.for_timely(50.0), initial_p=[0.1, np.nan])),
        ("line_rate", dict(line_rate=np.nan)),
        ("line_rate", dict(line_rate=np.inf)),
        ("mtu_packets", dict(mtu_packets=np.nan)),
        ("mtu_packets", dict(mtu_packets=np.inf)),
    ], ids=["inf_rate", "nan_queue", "nan_start", "nan_noise",
            "nan_noise_interval", "nan_initial_p", "nan_line_rate",
            "inf_line_rate", "nan_mtu", "inf_mtu"])
    def test_rejects_non_finite(self, timely_params, name, kwargs):
        kwargs = {"params": timely_params, **kwargs}
        with pytest.raises(ValueError, match=name):
            TimelyFluidModel(**kwargs)

    @pytest.mark.parametrize("name, value", [
        ("line_rate", -5.0), ("line_rate", 0.0), ("line_rate", 0.5),
        ("mtu_packets", 0.0), ("mtu_packets", -1.0),
    ])
    def test_rejects_out_of_range(self, timely_params, name, value):
        # Rates are clamped to [MIN_RATE, line_rate]; Eq. 24's MTU term
        # is a positive packet count.
        with pytest.raises(ValueError, match=name):
            TimelyFluidModel(timely_params, **{name: value})
        TimelyFluidModel(timely_params, line_rate=MIN_RATE)

    @pytest.mark.parametrize("patched, kwargs", [
        (True, dict(gradient_zero_increases=False)),
        (True, dict(noise_amplitude=8.0)),
        (True, dict(pi=PIParams.for_timely(50.0), noise_amplitude=8.0)),
        (False, dict(pi=PIParams.for_timely(50.0))),
        (False, dict(initial_p=[0.0, 0.0])),
        (True, dict(initial_p=[0.0, 0.0])),
    ], ids=["eq28_patched", "noise_patched", "noise_pi", "pi_plain",
            "initial_p_plain", "initial_p_without_pi"])
    def test_rejects_combinations_of_no_paper_system(self, timely_params,
                                                     patched, kwargs):
        params = PatchedTimelyParams.paper_default(num_flows=2) \
            if patched else timely_params
        with pytest.raises(ValueError, match="needs?"):
            TimelyFluidModel(params, **kwargs)


class TestEquation23And24:
    def test_update_interval_floor_is_min_rtt(self, timely_params):
        model = TimelyFluidModel(timely_params)
        fast = timely_params.capacity * 10
        assert update_interval(model, fast) == pytest.approx(
            timely_params.min_rtt)

    def test_update_interval_segment_bound(self, timely_params):
        model = TimelyFluidModel(timely_params)
        slow = timely_params.segment / (2 * timely_params.min_rtt)
        assert update_interval(model, slow) == pytest.approx(
            2 * timely_params.min_rtt)

    def test_feedback_delay_grows_with_queue(self, timely_params):
        model = TimelyFluidModel(timely_params)
        empty = model.feedback_delay(0.0, 0.0)
        full = model.feedback_delay(1000.0, 0.0)
        assert full - empty == pytest.approx(
            1000.0 / timely_params.capacity)

    def test_feedback_delay_includes_prop_and_mtu(self, timely_params):
        model = TimelyFluidModel(timely_params)
        assert model.feedback_delay(0.0, 0.0) == pytest.approx(
            timely_params.prop_delay + 1.0 / timely_params.capacity)


class TestRateLawBranches:
    """Eq. 21's four branches, probed directly."""

    def branch_rate(self, params, queue, gradient, **kwargs):
        # Fair-share rates; the delayed queue is ``queue``.
        model = TimelyFluidModel(params, **kwargs)
        return flat_derivatives(model, queue, gradient)[model.rate_slice()]

    def test_below_t_low_increases(self, timely_params):
        deriv = self.branch_rate(timely_params,
                                 timely_params.q_low * 0.5, gradient=5.0)
        assert np.all(deriv > 0)

    def test_above_t_high_decreases(self, timely_params):
        deriv = self.branch_rate(timely_params,
                                 timely_params.q_high * 2.0,
                                 gradient=-5.0)
        assert np.all(deriv < 0)

    def test_negative_gradient_in_band_increases(self, timely_params):
        queue = (timely_params.q_low + timely_params.q_high) / 2
        deriv = self.branch_rate(timely_params, queue, gradient=-0.5)
        assert np.all(deriv > 0)

    def test_positive_gradient_in_band_decreases(self, timely_params):
        queue = (timely_params.q_low + timely_params.q_high) / 2
        deriv = self.branch_rate(timely_params, queue, gradient=0.5)
        assert np.all(deriv < 0)

    def test_zero_gradient_increases_in_original(self, timely_params):
        queue = (timely_params.q_low + timely_params.q_high) / 2
        deriv = self.branch_rate(timely_params, queue, gradient=0.0)
        assert np.all(deriv > 0)

    def test_zero_gradient_freezes_in_modified(self, timely_params):
        queue = (timely_params.q_low + timely_params.q_high) / 2
        deriv = self.branch_rate(timely_params, queue, gradient=0.0,
                                 gradient_zero_increases=False)
        # g = 0 lands on the decrease side, whose magnitude is g*beta*R = 0.
        assert np.all(deriv == pytest.approx(0.0))

    def test_t_high_decrease_scales_with_excess(self, timely_params):
        mild = self.branch_rate(timely_params,
                                timely_params.q_high * 1.1, 0.0)
        severe = self.branch_rate(timely_params,
                                  timely_params.q_high * 3.0, 0.0)
        assert np.all(severe < mild)


class TestStartTimes:
    def test_inactive_flow_contributes_nothing(self, timely_params):
        model = TimelyFluidModel(timely_params,
                                 start_times=[0.0, 1.0])
        state = model.initial_state()
        history = make_history(state)
        deriv = np.array(model.derivatives(0.0, state.tolist(), history))
        # Only flow 0 feeds the queue: C/2 total against capacity C
        # cannot grow the (empty) queue.
        assert deriv[model.queue_index] == 0.0
        # Flow 1's state is frozen.
        assert deriv[model.rate_slice()][1] == 0.0
        assert deriv[model.gradient_slice()][1] == 0.0

    def test_active_mask_flips_at_start_time(self, timely_params):
        model = TimelyFluidModel(timely_params, start_times=[0.0, 0.01])
        assert list(model.active_flows(0.005)) == [True, False]
        assert list(model.active_flows(0.02)) == [True, True]


class TestLimitCycles:
    def test_queue_never_settles(self, timely_params):
        """Theorem 3 in action: sustained oscillation, no fixed point."""
        model = TimelyFluidModel(timely_params)
        trace = dde.integrate(model, t_end=0.05, dt=1e-6,
                              record_stride=20)
        assert trace.tail_std("q", 0.01) > 5.0  # packets

    def test_final_rates_depend_on_initial_conditions(self,
                                                      timely_params):
        """Theorem 4: different starts land in different regimes."""
        mtu = timely_params.mtu_bytes
        even = dde.integrate(
            TimelyFluidModel(timely_params), 0.04, dt=1e-6,
            record_stride=20)
        skewed = dde.integrate(
            TimelyFluidModel(
                timely_params,
                initial_rates=[units.gbps_to_pps(7, mtu),
                               units.gbps_to_pps(3, mtu)]),
            0.04, dt=1e-6, record_stride=20)
        gap_even = abs(even.tail_mean("r[0]", 0.01)
                       - even.tail_mean("r[1]", 0.01))
        gap_skewed = abs(skewed.tail_mean("r[0]", 0.01)
                         - skewed.tail_mean("r[1]", 0.01))
        assert gap_skewed > 5 * max(gap_even,
                                    0.01 * timely_params.fair_share)

    def test_total_rate_tracks_capacity(self, timely_params):
        model = TimelyFluidModel(timely_params)
        trace = dde.integrate(model, t_end=0.05, dt=1e-6,
                              record_stride=20)
        total = trace.tail_mean("r[0]", 0.01) \
            + trace.tail_mean("r[1]", 0.01)
        assert total == pytest.approx(timely_params.capacity, rel=0.15)


# -- bit-exact reference ------------------------------------------------------
#
# Eqs. 20-24 (and the Eq. 29-30 patch, its PI variant and the noisy
# variant) written out directly, one numpy expression per term.  The
# models evaluate the same per-element operations with fewer numpy
# calls, so they must agree bit for bit.  Both sides run on the same
# machine, so the comparison holds at any SIMD level.

def ref_update_intervals(model, rates):
    rates = np.maximum(rates, MIN_RATE)
    return np.maximum(model.params.segment / rates, model.params.min_rtt)


def ref_feedback_delay(model, queue, t):
    p = model.params
    base = queue / p.capacity + model.mtu_packets / p.capacity \
        + p.prop_delay
    return base + model.feedback_jitter(t)


def ref_weights(model, gradients):
    half = model.patched.weight_slope_halfwidth
    return np.clip(gradients / (2.0 * half) + 0.5, 0.0, 1.0)


def ref_rate_derivative(model, delayed_queue, gradients, rates, tau_star):
    p = model.params
    if delayed_queue < p.q_low:
        return p.delta / tau_star
    if delayed_queue > p.q_high:
        scale = 1.0 - p.q_high / delayed_queue
        return -(p.beta / tau_star) * scale * rates
    if model.patched is not None:
        w = ref_weights(model, gradients)
        q_ref = model.patched.q_ref
        error = (delayed_queue - q_ref) / q_ref
        beta = model.patched.beta_band
        return ((1.0 - w) * p.delta - w * beta * rates * error) / tau_star
    increase = p.delta / tau_star
    decrease = -(gradients * p.beta / tau_star) * rates
    if model.gradient_zero_increases:
        decreasing = gradients > 0.0
    else:
        decreasing = gradients >= 0.0
    return np.where(decreasing, decrease, increase)


def _delayed_queue(history, t):
    return history.component(t, 0)


def ref_timely_derivatives(model, t, state, history):
    p = model.params
    n = model.n
    queue = state[0]
    gradients = state[1:1 + n]
    rates = state[1 + n:1 + 2 * n]
    tau_star = ref_update_intervals(model, rates)
    tau_fb = ref_feedback_delay(model, queue, t)
    delayed_queue = _delayed_queue(history, t - tau_fb)
    active = t >= model.start_times
    dq = float(np.sum(rates[active])) - p.capacity
    if queue <= 0.0 and dq < 0.0:
        dq = 0.0
    older = np.array([_delayed_queue(history, t - tau_fb - tau_star[i])
                      for i in range(n)])
    normalized_diff = (delayed_queue - older) / (p.capacity * p.min_rtt)
    dg = (p.ewma_alpha / tau_star) * (normalized_diff - gradients)
    dr = ref_rate_derivative(model, delayed_queue, gradients, rates,
                             tau_star)
    out = np.empty_like(state)
    out[0] = dq
    out[1:1 + n] = np.where(active, dg, 0.0)
    out[1 + n:1 + 2 * n] = np.where(active, dr, 0.0)
    return out


def ref_noisy_derivatives(model, t, state, history):
    out = ref_timely_derivatives(model, t, state, history)
    if model.noise_amplitude == 0.0:
        return out
    p = model.params
    n = model.n
    tau_star = ref_update_intervals(model, state[1 + n:1 + 2 * n])
    perturbation = (p.ewma_alpha / tau_star) \
        * model.measurement_noise(t) / (p.capacity * p.min_rtt)
    out[1:1 + n] += np.where(t >= model.start_times, perturbation, 0.0)
    return out


def ref_pi_derivatives(model, t, state, history):
    p = model.params
    pi = model.pi
    n = model.n
    queue = state[0]
    gradients = state[1:1 + n]
    rates = state[1 + n:1 + 2 * n]
    p_values = state[1 + 2 * n:1 + 3 * n]
    active = t >= model.start_times
    tau_star = ref_update_intervals(model, rates)
    tau_fb = ref_feedback_delay(model, queue, t)
    delayed_queue = _delayed_queue(history, t - tau_fb)
    dq = float(np.sum(rates[active])) - p.capacity
    if queue <= 0.0 and dq < 0.0:
        dq = 0.0
    older = np.array([_delayed_queue(history, t - tau_fb - tau_star[i])
                      for i in range(n)])
    normalized_diff = (delayed_queue - older) / (p.capacity * p.min_rtt)
    dg = (p.ewma_alpha / tau_star) * (normalized_diff - gradients)
    error = (delayed_queue - pi.q_ref) / pi.q_ref
    error_slope = (delayed_queue - older) / tau_star / pi.q_ref
    dp = pi.k1 * error_slope + pi.k2 * error
    w = ref_weights(model, gradients)
    dr = ((1.0 - w) * p.delta
          - w * model.patched.beta_band * rates * p_values) / tau_star
    if delayed_queue < p.q_low:
        dr = p.delta / tau_star
    elif delayed_queue > p.q_high:
        scale = 1.0 - p.q_high / delayed_queue
        dr = -(model.patched.beta_band / tau_star) * scale * rates
    out = np.empty_like(state)
    out[0] = dq
    out[1:1 + n] = np.where(active, dg, 0.0)
    out[1 + n:1 + 2 * n] = np.where(active, dr, 0.0)
    out[1 + 2 * n:1 + 3 * n] = np.where(active, dp, 0.0)
    return out


def ref_derivatives(model, t, state, history):
    if model.pi is not None:
        return ref_pi_derivatives(model, t, state, history)
    if model.noise_amplitude > 0.0:
        return ref_noisy_derivatives(model, t, state, history)
    return ref_timely_derivatives(model, t, state, history)


def ref_clamp(model, state):
    n = model.n
    state[0] = max(state[0], 0.0)
    np.clip(state[1 + n:1 + 2 * n], 1.0, model.line_rate,
            out=state[1 + n:1 + 2 * n])
    return state


def _patched(num_flows=2):
    return PatchedTimelyParams.paper_default(capacity_gbps=10.0,
                                             num_flows=num_flows)


_MODELS = {
    "timely": lambda p, **kw: TimelyFluidModel(p, **kw),
    "modified": lambda p, **kw: TimelyFluidModel(
        p, gradient_zero_increases=False, **kw),
    "staggered": lambda p, **kw: TimelyFluidModel(
        p, start_times=np.linspace(0.0, 1e-3, p.num_flows), **kw),
    "jitter": lambda p, **kw: TimelyFluidModel(
        p, feedback_jitter=JitterProcess(100e-6, seed=1), **kw),
    "patched": lambda p, **kw: TimelyFluidModel(_patched(p.num_flows), **kw),
    "patched_jitter": lambda p, **kw: TimelyFluidModel(
        _patched(p.num_flows), feedback_jitter=JitterProcess(100e-6, seed=1),
        **kw),
    "patched_pi": lambda p, **kw: TimelyFluidModel(
        _patched(p.num_flows), pi=PIParams.for_timely(50.0),
        initial_p=np.linspace(-0.2, 0.3, p.num_flows), **kw),
    "noisy": lambda p, **kw: TimelyFluidModel(
        p, noise_amplitude=8.0, noise_seed=2, **kw),
}


class TestBitExactReference:
    """The models equal the direct transcription above, bit for bit."""

    @pytest.mark.parametrize("name", sorted(_MODELS))
    @pytest.mark.parametrize("band", ["below_t_low", "in_band",
                                      "above_t_high"])
    def test_single_derivatives(self, name, band):
        params = TimelyParams.paper_default(capacity_gbps=10.0,
                                            num_flows=5)
        model = _MODELS[name](params)
        queue = {"below_t_low": 0.5 * params.q_low,
                 "in_band": 0.5 * (params.q_low + params.q_high),
                 "above_t_high": 2.0 * params.q_high}[band]
        state = model.initial_state()
        state[0] = queue
        # Gradients of both signs and exactly zero (Eq. 21 vs Eq. 28),
        # past the Eq. 30 ramp on both sides; rates from below
        # MIN_RATE (Seg/R above D_minRTT) to line rate.
        state[1:6] = [-2.0, -0.1, 0.0, 0.1, 2.0]
        state[6:11] = [0.5, MIN_RATE, 1e4, 5e5, model.line_rate]
        history = UniformHistory(0.0, 1e-6, state, capacity=3000)
        for k in range(1, 3000):
            # The queue wanders so delayed differences are nonzero.
            row = state.copy()
            row[0] = queue * (1.0 + 0.05 * np.sin(k * 1e-2))
            history.append(row)
        for t in (0.0, 4e-4, 1.5e-3 + 3.7e-7, 2.9e-3):
            values = state.tolist()
            got = model.derivatives(t, values, history)
            assert values == state.tolist()
            assert np.array_equal(got, ref_derivatives(model, t, state,
                                                       history))

    @pytest.mark.parametrize("name", sorted(_MODELS))
    def test_integrate_traces(self, reference_rhs, name):
        params = TimelyParams.paper_default(capacity_gbps=10.0,
                                            num_flows=2)
        rates = [units.gbps_to_pps(g, params.mtu_bytes) for g in (7.0, 3.0)]
        got = dde.integrate(_MODELS[name](params, initial_rates=rates),
                            2e-3, dt=1e-6)
        want = dde.integrate(
            reference_rhs(_MODELS[name](params, initial_rates=rates),
                          ref_derivatives, ref_clamp), 2e-3, dt=1e-6)
        assert np.array_equal(got.states, want.states)

    @pytest.mark.parametrize("name", ["timely", "patched_pi"])
    def test_clamp(self, name, integrator_bounded):
        # The integrator's bounds, read back from one step of each
        # method, against the transcription's clamp, bit for bit.
        model = _MODELS[name](TimelyParams.paper_default(num_flows=3))
        rng = np.random.default_rng(5)
        specials = np.array([-1e9, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 1e12,
                             np.inf, -np.inf, np.nan])
        for k in range(200):
            state = rng.choice(specials, len(model.state_labels()))
            method = ("euler", "heun", "rk4")[k % 3]
            got = integrator_bounded(model, state, method)
            want = ref_clamp(model, state.copy())
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# -- exchangeable flows -------------------------------------------------------

#: Long enough for patched TIMELY at N = 64 to enter its Fig. 12
#: limit cycle (the queue swings by ~200 packets from about 5 ms on).
_CORE_HORIZON = 10e-3


def _fair_start(name, num_flows):
    params = TimelyParams.paper_default(capacity_gbps=10.0,
                                        num_flows=num_flows)
    return _MODELS[name](params)


class TestExchangeableReduction:
    """Identical flows integrate as one representative, bit for bit."""

    @pytest.mark.parametrize("num_flows", [1, 10, 64])
    @pytest.mark.parametrize("name", ["timely", "modified", "patched",
                                      "patched_jitter"])
    def test_core_trace_matches_reference(self, reference_rhs, name,
                                          num_flows):
        model = _fair_start(name, num_flows)
        core, core_state, columns = model.reduced(model.initial_state())
        assert len(core_state) == 3
        assert np.array_equal(core_state[columns], model.initial_state())
        got = dde.integrate(model, _CORE_HORIZON, dt=1e-6)
        want = dde.integrate(
            reference_rhs(_fair_start(name, num_flows), ref_derivatives,
                          ref_clamp), _CORE_HORIZON, dt=1e-6)
        assert got.labels == want.labels
        assert np.array_equal(got.states, want.states)
        if name == "patched" and num_flows == 64:
            assert np.ptp(got.tail("q", 5e-3)) > 100.0

    @pytest.mark.parametrize("name", ["staggered", "patched_pi", "noisy"])
    def test_non_exchangeable_variants_fall_back(self, name):
        model = _fair_start(name, 3)
        assert model.reduced(model.initial_state()) is None

    def test_unequal_rates_fall_back(self, timely_params):
        model = TimelyFluidModel(timely_params,
                                 initial_rates=[6e5, 6e5 + 1.0])
        assert model.reduced(model.initial_state()) is None

    def test_signed_zero_gradient_is_not_equal(self):
        model = _fair_start("patched", 4)
        state = model.initial_state()
        assert model.reduced(state) is not None
        state[model.gradient_slice().start + 2] = -0.0
        assert model.reduced(state) is None

    def test_observer_sees_full_layout(self, reference_rhs):
        seen = {"core": [], "reference": []}

        def recorder(key):
            return lambda t, state: seen[key].append((t, state.copy()))

        dde.integrate(_fair_start("patched", 4), 2e-4, dt=1e-6,
                      observer=recorder("core"), observer_stride=7)
        dde.integrate(reference_rhs(_fair_start("patched", 4),
                                    ref_derivatives, ref_clamp),
                      2e-4, dt=1e-6, observer=recorder("reference"),
                      observer_stride=7)
        assert len(seen["core"]) == len(seen["reference"]) == 28
        for (t, got), (t_ref, want) in zip(seen["core"],
                                           seen["reference"]):
            assert t == t_ref
            assert got.shape == (9,)
            assert np.array_equal(got, want)

    def test_failure_state_in_full_layout(self, reference_rhs):
        failures = []
        for model in (_fair_start("timely", 4),
                      reference_rhs(_fair_start("timely", 4),
                                    ref_derivatives, ref_clamp)):
            with pytest.raises(dde.IntegrationError) as caught:
                dde.integrate(model, 1e-4, dt=1e-6, max_retries=0,
                              divergence_limit=1e3)
            failures.append(caught.value.failure)
        core, reference = failures
        assert core.state.shape == (9,)
        assert np.array_equal(core.state, reference.state)
        assert str(core) == str(reference)
