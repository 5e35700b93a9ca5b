"""DCQCN fluid model: event-rate algebra, dynamics, convergence."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.core.fluid import dde
from repro.core.fluid.dcqcn import (DCQCNFluidModel, MIN_RATE,
                                    qcn_event_rates, survival_exponent)
from repro.core.fluid.history import UniformHistory
from repro.core.fluid.jitter import JitterProcess
from repro.core.fluid.pi import DCQCNPIFluidModel
from repro.core.params import DCQCNParams, PIParams


class TestSurvivalExponent:
    def test_p_zero_is_one(self):
        assert survival_exponent(0.0, 1000.0) == pytest.approx(1.0)

    def test_matches_direct_power_for_small_counts(self):
        assert survival_exponent(0.01, 100.0) == pytest.approx(
            0.99 ** 100, rel=1e-9)

    def test_huge_count_underflows_to_zero(self):
        assert survival_exponent(0.5, 1e7) == 0.0

    @given(st.floats(min_value=1e-6, max_value=0.99),
           st.floats(min_value=1.0, max_value=1e6))
    def test_in_unit_interval(self, p, count):
        value = survival_exponent(p, count)
        assert 0.0 <= value <= 1.0


class TestQCNEventRates:
    def test_zero_p_limits(self, dcqcn_params):
        rate = np.array([dcqcn_params.fair_share])
        events = qcn_event_rates(0.0, rate, dcqcn_params)
        assert events.mark_fraction[0] == pytest.approx(0.0)
        # Byte counter fires every B packets -> rate R/B.
        assert events.byte_rate[0] == pytest.approx(
            rate[0] / dcqcn_params.byte_counter)
        # Timer fires every T seconds.
        assert events.timer_rate[0] == pytest.approx(
            1.0 / dcqcn_params.timer)
        # Without marking, every event is past fast recovery.
        assert events.byte_ai_rate[0] == pytest.approx(
            events.byte_rate[0])
        assert events.timer_ai_rate[0] == pytest.approx(
            events.timer_rate[0])

    def test_small_p_continuity(self, dcqcn_params):
        rate = np.array([dcqcn_params.fair_share])
        at_zero = qcn_event_rates(0.0, rate, dcqcn_params)
        near_zero = qcn_event_rates(1e-12, rate, dcqcn_params)
        assert near_zero.byte_rate[0] == pytest.approx(
            at_zero.byte_rate[0], rel=1e-6)
        assert near_zero.timer_rate[0] == pytest.approx(
            at_zero.timer_rate[0], rel=1e-6)

    def test_marking_suppresses_ai_events(self, dcqcn_params):
        rate = np.array([dcqcn_params.fair_share])
        events = qcn_event_rates(0.05, rate, dcqcn_params)
        # Post-fast-recovery events need long unmarked runs, so they
        # are strictly rarer than raw events under marking.
        assert events.byte_ai_rate[0] < events.byte_rate[0]
        assert events.timer_ai_rate[0] < events.timer_rate[0]

    def test_mark_fraction_increases_with_p(self, dcqcn_params):
        rate = np.array([dcqcn_params.fair_share])
        fractions = [qcn_event_rates(p, rate,
                                     dcqcn_params).mark_fraction[0]
                     for p in (1e-4, 1e-3, 1e-2, 1e-1)]
        assert all(a < b for a, b in zip(fractions, fractions[1:]))

    @given(st.floats(min_value=0.0, max_value=0.999))
    @settings(max_examples=50)
    def test_rates_nonnegative_and_finite(self, p):
        params = DCQCNParams.paper_default()
        rate = np.array([params.fair_share])
        events = qcn_event_rates(p, rate, params)
        for field in events:
            assert np.all(field >= 0.0)
            assert np.all(np.isfinite(field))

    def test_vectorized_over_flows(self, dcqcn_params):
        rates = np.array([1e5, 5e5, 2e6])
        events = qcn_event_rates(0.01, rates, dcqcn_params)
        assert events.byte_rate.shape == (3,)
        # Byte-counter event rate grows with the flow's rate.
        assert events.byte_rate[0] < events.byte_rate[2]


class TestModelConstruction:
    def test_state_layout(self, dcqcn_ten_flows):
        model = DCQCNFluidModel(dcqcn_ten_flows)
        labels = model.state_labels()
        assert len(labels) == 1 + 3 * 10
        assert labels[0] == "q"
        assert labels[model.rc_slice()][0] == "rc[0]"

    def test_initial_state_line_rate(self, dcqcn_params):
        model = DCQCNFluidModel(dcqcn_params)
        state = model.initial_state()
        assert np.all(state[model.rc_slice()] ==
                      pytest.approx(dcqcn_params.capacity))
        assert np.all(state[model.alpha_slice()] == 1.0)
        assert state[model.queue_index] == 0.0

    def test_custom_initial_rates(self, dcqcn_params):
        rates = [1e5, 2e5]
        model = DCQCNFluidModel(dcqcn_params, initial_rates=rates)
        state = model.initial_state()
        assert state[model.rc_slice()] == pytest.approx(rates)

    def test_rejects_wrong_rate_count(self, dcqcn_params):
        with pytest.raises(ValueError):
            DCQCNFluidModel(dcqcn_params, initial_rates=[1e5])

    def test_rejects_negative_queue(self, dcqcn_params):
        with pytest.raises(ValueError):
            DCQCNFluidModel(dcqcn_params, initial_queue=-1.0)

    @pytest.mark.parametrize("name, kwargs", [
        ("initial_rates", dict(initial_rates=[np.nan, 1e6])),
        ("initial_rates", dict(initial_rates=[np.inf, 1e6])),
        ("initial_queue", dict(initial_queue=np.nan)),
        ("marking_delay", dict(marking_delay=np.nan)),
        ("start_times", dict(start_times=[0.0, np.nan])),
    ], ids=["nan_rate", "inf_rate", "nan_queue", "nan_marking_delay",
            "nan_start"])
    def test_rejects_non_finite(self, dcqcn_params, name, kwargs):
        with pytest.raises(ValueError, match=name):
            DCQCNFluidModel(dcqcn_params, **kwargs)

    def test_rejects_negative_marking_delay(self, dcqcn_params):
        with pytest.raises(ValueError):
            DCQCNFluidModel(dcqcn_params, marking_delay=-1e-6)


class TestDerivatives:
    def make_history(self, model, state, dt=1e-6):
        return UniformHistory(0.0, dt, state)

    def test_queue_grows_at_line_rate_start(self, dcqcn_params):
        model = DCQCNFluidModel(dcqcn_params)
        state = model.initial_state()
        history = self.make_history(model, state)
        deriv = model.derivatives(0.0, state, history)
        # Two line-rate flows into one line-rate bottleneck: the queue
        # grows at (2 - 1) * C.
        assert deriv[model.queue_index] == pytest.approx(
            dcqcn_params.capacity)

    def test_empty_queue_cannot_drain(self, dcqcn_params):
        model = DCQCNFluidModel(dcqcn_params,
                                initial_rates=[1e3, 1e3])
        state = model.initial_state()
        history = self.make_history(model, state)
        deriv = model.derivatives(0.0, state, history)
        assert deriv[model.queue_index] == 0.0

    def test_no_marking_below_kmin(self, dcqcn_params):
        model = DCQCNFluidModel(dcqcn_params)
        state = model.initial_state()
        history = self.make_history(model, state)
        assert model.marking_probability(0.0, history) == 0.0

    def test_alpha_decays_without_marking(self, dcqcn_params):
        model = DCQCNFluidModel(dcqcn_params)
        state = model.initial_state()
        history = self.make_history(model, state)
        deriv = model.derivatives(0.0, state, history)
        assert np.all(deriv[model.alpha_slice()] < 0.0)

    def test_clamp_bounds_everything(self, dcqcn_params):
        model = DCQCNFluidModel(dcqcn_params)
        state = model.initial_state()
        state[model.queue_index] = -5.0
        state[model.alpha_slice()] = 2.0
        state[model.rc_slice()] = 1e12
        clamped = model.clamp(state)
        assert clamped[model.queue_index] == 0.0
        assert np.all(clamped[model.alpha_slice()] <= 1.0)
        assert np.all(clamped[model.rc_slice()] <= model.line_rate)
        state[model.rc_slice()] = 0.0
        assert np.all(model.clamp(state)[model.rc_slice()] >= MIN_RATE)


class TestConvergence:
    def test_two_flows_converge_to_fair_share(self, dcqcn_params):
        model = DCQCNFluidModel(dcqcn_params)
        trace = dde.integrate(model, t_end=0.03, dt=2e-6,
                              record_stride=20)
        fair = dcqcn_params.fair_share
        assert trace.tail_mean("rc[0]", 0.005) == pytest.approx(
            fair, rel=0.05)
        assert trace.tail_mean("rc[1]", 0.005) == pytest.approx(
            fair, rel=0.05)

    def test_asymmetric_start_converges(self, dcqcn_params):
        mtu = dcqcn_params.mtu_bytes
        model = DCQCNFluidModel(
            dcqcn_params,
            initial_rates=[units.gbps_to_pps(30, mtu),
                           units.gbps_to_pps(10, mtu)])
        trace = dde.integrate(model, t_end=0.05, dt=2e-6,
                              record_stride=20)
        r0 = trace.tail_mean("rc[0]", 0.01)
        r1 = trace.tail_mean("rc[1]", 0.01)
        assert r0 == pytest.approx(r1, rel=0.1)

    def test_queue_settles_between_red_thresholds(self, dcqcn_params):
        model = DCQCNFluidModel(dcqcn_params)
        trace = dde.integrate(model, t_end=0.03, dt=2e-6,
                              record_stride=20)
        queue = trace.tail_mean("q", 0.005)
        assert dcqcn_params.red.kmin < queue < dcqcn_params.red.kmax

    def test_large_delay_ten_flows_oscillates(self):
        params = DCQCNParams.paper_default(num_flows=10,
                                           tau_star_us=85.0)
        model = DCQCNFluidModel(params)
        trace = dde.integrate(model, t_end=0.05, dt=2e-6,
                              record_stride=20)
        stable_params = DCQCNParams.paper_default(num_flows=10,
                                                  tau_star_us=4.0)
        stable = dde.integrate(DCQCNFluidModel(stable_params),
                               t_end=0.05, dt=2e-6, record_stride=20)
        # The 85us system's tail queue swings far more than the 4us one.
        assert trace.tail_std("q", 0.01) > 5 * stable.tail_std("q", 0.01)

    def test_ingress_marking_delay_degrades_stability(self):
        params = DCQCNParams.paper_default(num_flows=2,
                                           tau_star_us=85.0)
        egress = dde.integrate(DCQCNFluidModel(params), 0.05, dt=2e-6,
                               record_stride=20)
        ingress = dde.integrate(
            DCQCNFluidModel(params, marking_delay=units.us(40)),
            0.05, dt=2e-6, record_stride=20)
        assert ingress.tail_std("q", 0.01) > egress.tail_std("q", 0.01)


class TestEventRatesWarningFree:
    """``qcn_event_rates`` silences exactly the overflow it relies on.

    The fixed point and the margin code share it with the fluid RHS,
    so a warning here would leak into all three.
    """

    @pytest.mark.parametrize("p", [0.0, 1e-15, 0.05, 1.0 - 1e-13])
    def test_no_runtime_warning(self, dcqcn_params, p):
        rates = np.array([0.5, MIN_RATE, 1e3, 1e6, dcqcn_params.capacity])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            events = qcn_event_rates(p, rates, dcqcn_params)
        for field in events:
            assert np.all(np.isfinite(field))


# -- bit-exact reference ------------------------------------------------------
#
# Eqs. 3-7 and the Eq. 12 event rates written out directly, one numpy
# expression per term.  The model evaluates the same per-element
# operations with fewer numpy calls, so it must agree bit for bit in
# every regime of the event-rate algebra.  Both sides run on the same
# machine, so the comparison holds at any SIMD level.

_P_CEIL = 1.0 - 1e-12


def ref_survival(p, count):
    if p <= 0.0:
        return np.ones_like(np.asarray(count, dtype=float))
    p = min(p, _P_CEIL)
    return np.exp(np.asarray(count, dtype=float) * np.log1p(-p))


def ref_event_rate(p, rate, window_packets, zero_p_rate):
    if p <= 0.0:
        return np.asarray(zero_p_rate, dtype=float).copy()
    p = min(p, _P_CEIL)
    exponent = -np.asarray(window_packets, dtype=float) * np.log1p(-p)
    out = np.empty_like(exponent)
    tiny = exponent < 1e-12
    with np.errstate(over="ignore"):
        denominator = np.expm1(exponent[~tiny])
        out[~tiny] = p * np.asarray(rate, dtype=float)[~tiny] / denominator
    out[tiny] = np.asarray(zero_p_rate, dtype=float)[tiny]
    return out


def ref_event_rates(p, delayed_rate, params):
    rate = np.maximum(np.asarray(delayed_rate, dtype=float), MIN_RATE)
    f_steps = float(params.fast_recovery_steps)
    mark_fraction = -np.expm1(
        params.tau * rate * np.log1p(-min(max(p, 0.0), _P_CEIL))
    ) if p > 0.0 else np.zeros_like(rate)
    byte_window = np.full_like(rate, params.byte_counter)
    byte_rate = ref_event_rate(p, rate, byte_window,
                               rate / params.byte_counter)
    byte_ai_rate = byte_rate * ref_survival(
        p, f_steps * params.byte_counter)
    timer_window = params.timer * rate
    timer_rate = ref_event_rate(p, rate, timer_window,
                                np.full_like(rate, 1.0 / params.timer))
    timer_ai_rate = timer_rate * ref_survival(
        p, f_steps * params.timer * rate)
    return (mark_fraction, byte_rate, byte_ai_rate, timer_rate,
            timer_ai_rate)


def ref_marking_probability(model, t, history):
    if isinstance(model, DCQCNPIFluidModel):
        lag = model.params.tau_star + model.feedback_jitter(t)
        delayed_p = history(t - lag)[model.p_mark_index]
        return float(np.clip(delayed_p, model.pi.p_min, model.pi.p_max))
    lag = (model.params.tau_star + model.marking_delay
           + model.feedback_jitter(t))
    delayed_queue = float(history(t - lag)[0])
    red = model.params.red
    if model.extend_red:
        return min(max((delayed_queue - red.kmin) * red.slope, 0.0), 1.0)
    return red.marking_probability(delayed_queue)


def ref_dcqcn_derivatives(model, t, state, history):
    """Eqs. 4-7 for the ``[q, alpha, R_T, R_C]`` block of ``state``."""
    p = model.params
    n = model.n
    queue = state[0]
    alpha = state[1:1 + n]
    rt = state[1 + n:1 + 2 * n]
    rc = state[1 + 2 * n:1 + 3 * n]

    mark_p = ref_marking_probability(model, t, history)
    delayed_rc = history(t - p.tau_star - model.feedback_jitter(t))[
        1 + 2 * n:1 + 3 * n]
    delayed_rc = np.maximum(delayed_rc, MIN_RATE)
    mark_fraction, byte_rate, byte_ai_rate, timer_rate, timer_ai_rate = \
        ref_event_rates(mark_p, delayed_rc, p)

    active = t >= model.start_times
    dq = float(np.sum(rc[active])) - p.capacity
    if queue <= 0.0 and dq < 0.0:
        dq = 0.0
    alpha_target = -np.expm1(
        p.tau_prime * delayed_rc * np.log1p(-min(mark_p, _P_CEIL))
    ) if mark_p > 0.0 else np.zeros(n)
    dalpha = (p.g / p.tau_prime) * (alpha_target - alpha)
    drt = (-(rt - rc) / p.tau * mark_fraction
           + p.rate_ai * (byte_ai_rate + timer_ai_rate))
    drc = (-(rc * alpha) / (2.0 * p.tau) * mark_fraction
           + (rt - rc) / 2.0 * (byte_rate + timer_rate))

    out = np.empty_like(state)
    out[0] = dq
    out[1:1 + n] = np.where(active, dalpha, 0.0)
    out[1 + n:1 + 2 * n] = np.where(active, drt, 0.0)
    out[1 + 2 * n:1 + 3 * n] = np.where(active, drc, 0.0)
    return out


def ref_derivatives(model, t, state, history):
    if not isinstance(model, DCQCNPIFluidModel):
        return ref_dcqcn_derivatives(model, t, state, history)
    # Eq. 32 marker riding on the DCQCN block.
    pi = model.pi
    base = ref_dcqcn_derivatives(model, t, state[:model.p_mark_index],
                                 history)
    dq = base[0]
    error = (state[0] - pi.q_ref) / pi.q_ref
    dp = pi.k1 * dq / pi.q_ref + pi.k2 * error
    p_mark = state[model.p_mark_index]
    if (p_mark <= pi.p_min and dp < 0) or (p_mark >= pi.p_max and dp > 0):
        dp = 0.0
    return np.append(base, dp)


def ref_clamp(model, state):
    n = model.n
    state[0] = max(state[0], 0.0)
    np.clip(state[1:1 + n], 0.0, 1.0, out=state[1:1 + n])
    np.clip(state[1 + n:1 + 2 * n], MIN_RATE, model.line_rate,
            out=state[1 + n:1 + 2 * n])
    np.clip(state[1 + 2 * n:1 + 3 * n], MIN_RATE, model.line_rate,
            out=state[1 + 2 * n:1 + 3 * n])
    if isinstance(model, DCQCNPIFluidModel):
        i = model.p_mark_index
        state[i] = float(np.clip(state[i], model.pi.p_min, model.pi.p_max))
    return state


def _queue_for(params, p):
    """Queue depth whose physical-RED marking probability is ``p``."""
    red = params.red
    return red.kmin + p / red.pmax * (red.kmax - red.kmin)


def _spread_state(model, queue):
    """A state with distinct per-flow values, rates MIN_RATE..line.

    With seed 2 the ten R_C values sum differently left to right than
    numpy's pairwise ``add.reduce`` does, so the single-call tests also
    pin the summation order of Eq. 4.
    """
    n = model.n
    state = model.initial_state()
    state[0] = queue
    state[1:1 + n] = np.linspace(0.0, 1.0, n)
    state[1 + n:1 + 2 * n] = np.geomspace(MIN_RATE, model.line_rate, n)
    state[1 + 2 * n:1 + 3 * n] = np.random.default_rng(2).uniform(
        MIN_RATE, model.line_rate, n)
    return state


def _constant_history(state, rows=400):
    history = UniformHistory(0.0, 1e-6, state, capacity=rows)
    for _ in range(rows - 1):
        history.append(state)
    return history


class TestBitExactReference:
    """The model equals the direct transcription above, bit for bit."""

    @pytest.mark.parametrize("p", [0.0, 1e-15, 1e-14, 4e-3, 0.05, 0.2,
                                   1.0 - 1e-13, 1.0])
    def test_event_rates(self, dcqcn_ten_flows, p):
        rates = np.array([0.5, MIN_RATE, 10.0, 1e3, 1e5, 1e6, 5e6,
                          dcqcn_ten_flows.capacity])
        got = qcn_event_rates(p, rates, dcqcn_ten_flows)
        want = ref_event_rates(p, rates, dcqcn_ten_flows)
        for field, expected in zip(got, want):
            assert np.array_equal(field, expected)
        # Fixed point and margin code pass one-flow arrays.
        for i in range(rates.size):
            one = qcn_event_rates(p, rates[i:i + 1], dcqcn_ten_flows)
            assert [f[0] for f in one] == [f[i] for f in want]

    def test_timer_limit_regime_is_mixed_at_1e_14(self, dcqcn_ten_flows):
        # Slow flows take the p -> 0 timer limit 1/T, fast ones do not.
        rates = np.array([MIN_RATE, 1e3, 1e7])
        timer_rate = qcn_event_rates(1e-14, rates,
                                     dcqcn_ten_flows).timer_rate
        limit = 1.0 / dcqcn_ten_flows.timer
        assert timer_rate[0] == limit and timer_rate[2] != limit

    @pytest.mark.parametrize("regime", [
        "p0", "p1e-15", "byte_overflow", "red_cliff", "staggered",
        "jitter", "pi"])
    def test_single_derivatives(self, regime):
        params = DCQCNParams.paper_default(num_flows=10, tau_star_us=85.0)
        kwargs = {}
        queue = _queue_for(params, 4e-3)
        if regime == "p0":
            queue = 0.5 * params.red.kmin
        elif regime == "p1e-15":
            queue = _queue_for(params, 1e-15)
        elif regime == "byte_overflow":
            # expm1 of the byte-counter exponent overflows past ~709.8.
            assert params.byte_counter * -np.log1p(-0.2) > 710.0
            kwargs["extend_red"] = True
            queue = _queue_for(params, 0.2)
        elif regime == "red_cliff":
            queue = 2.0 * params.red.kmax
        elif regime == "staggered":
            kwargs["start_times"] = np.linspace(0.0, 4e-4, params.num_flows)
        elif regime == "jitter":
            kwargs["feedback_jitter"] = JitterProcess(100e-6, seed=4)
        if regime == "pi":
            model = DCQCNPIFluidModel(params, PIParams.for_dcqcn(100.0))
            state = _spread_state(model, queue)
            state[model.p_mark_index] = 0.3
        else:
            model = DCQCNFluidModel(params, **kwargs)
            state = _spread_state(model, queue)
        rc = state[1 + 2 * model.n:1 + 3 * model.n]
        assert float(np.add.reduce(rc)) != sum(rc.tolist())
        history = _constant_history(state)
        for t in (0.0, 1.37e-4, 2.5037e-4, 3.99e-4):
            mark_p = model.marking_probability(t, history)
            if regime == "p0":
                assert mark_p == 0.0
            elif regime == "p1e-15":
                assert 0.0 < mark_p < 1e-13
            elif regime == "red_cliff":
                assert mark_p == 1.0
            before = state.copy()
            got = model.derivatives(t, state, history)
            assert np.array_equal(state, before)
            assert np.array_equal(got, ref_derivatives(model, t, state,
                                                       history))

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: DCQCNFluidModel(
            DCQCNParams.paper_default(num_flows=10, tau_star_us=85.0),
            extend_red=True), id="smooth_red_n10"),
        pytest.param(lambda: DCQCNFluidModel(
            DCQCNParams.paper_default(num_flows=2, tau_star_us=4.0)),
            id="physical_red_n2"),
        pytest.param(lambda: DCQCNFluidModel(
            DCQCNParams.paper_default(num_flows=3, tau_star_us=50.0),
            start_times=[0.0, 5e-4, 1e-3], marking_delay=5e-6),
            id="staggered_n3"),
        pytest.param(lambda: DCQCNFluidModel(
            DCQCNParams.paper_default(num_flows=2, tau_star_us=20.0),
            feedback_jitter=JitterProcess(100e-6, seed=3)),
            id="jitter_n2"),
        pytest.param(lambda: DCQCNPIFluidModel(
            DCQCNParams.paper_default(num_flows=2),
            PIParams.for_dcqcn(100.0)), id="pi_n2"),
    ])
    def test_integrate_traces(self, reference_rhs, make):
        got = dde.integrate(make(), 2e-3, dt=1e-6)
        want = dde.integrate(reference_rhs(make(), ref_derivatives,
                                           ref_clamp), 2e-3, dt=1e-6)
        assert np.array_equal(got.states, want.states)

    @pytest.mark.parametrize("pi", [False, True])
    def test_clamp(self, pi):
        params = DCQCNParams.paper_default(num_flows=4)
        rng = np.random.default_rng(7)
        specials = np.array([-1e9, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 1e12,
                             np.inf, -np.inf, np.nan])
        if pi:
            model = DCQCNPIFluidModel(params, PIParams.for_dcqcn(100.0))
        else:
            model = DCQCNFluidModel(params)
        for _ in range(200):
            state = rng.choice(specials, len(model.state_labels()))
            got = model.clamp(state.copy())
            want = ref_clamp(model, state.copy())
            assert np.array_equal(got, want, equal_nan=True)


# -- exchangeable flows: the 4-state core -------------------------------------


class _Unreduced(DCQCNFluidModel):
    """The same model forced onto the N-flow path."""

    def reduced(self, initial):
        return None


def _fig04_cell(cls=DCQCNFluidModel, **kwargs):
    params = DCQCNParams.paper_default(num_flows=10, tau_star_us=85.0)
    return cls(params, extend_red=True, **kwargs)


#: Ten copies of this rate sum differently pairwise (numpy), left to
#: right and as ``10 * rate``, so Eq. 4's order is pinned.
_RATE = 1e7 / 3.0


class TestExchangeableReduction:
    """Identical flows integrate as one representative, bit for bit."""

    def test_limit_cycle_trace_matches_full_path(self):
        # 20 ms at 85 us, N = 10 reaches the Fig. 4 limit cycle.
        model = _fig04_cell()
        assert model.reduced(model.initial_state()) is not None
        got = dde.integrate(model, 20e-3, dt=1e-6)
        want = dde.integrate(_fig04_cell(_Unreduced), 20e-3, dt=1e-6)
        assert got.labels == want.labels
        assert np.array_equal(got.states, want.states)
        assert got.tail_std("q", 5e-3) > 1.0

    @pytest.mark.parametrize("num_flows", [1, 64])
    def test_short_traces_match_full_path(self, num_flows):
        params = DCQCNParams.paper_default(num_flows=num_flows,
                                           tau_star_us=20.0)
        got = dde.integrate(DCQCNFluidModel(params), 1e-3, dt=1e-6)
        want = dde.integrate(_Unreduced(params), 1e-3, dt=1e-6)
        assert np.array_equal(got.states, want.states)

    @pytest.mark.parametrize("regime", [
        "p0", "p1e-15", "ramp", "byte_overflow", "red_cliff"])
    def test_single_derivatives(self, regime):
        params = DCQCNParams.paper_default(num_flows=10, tau_star_us=85.0)
        extend_red = regime == "byte_overflow"
        queue = {"p0": 0.5 * params.red.kmin,
                 "p1e-15": _queue_for(params, 1e-15),
                 "ramp": _queue_for(params, 4e-3),
                 "byte_overflow": _queue_for(params, 0.2),
                 "red_cliff": 2.0 * params.red.kmax}[regime]
        model = DCQCNFluidModel(params, extend_red=extend_red)
        state = model.initial_state()
        state[0] = queue
        state[model.alpha_slice()] = 0.37
        state[model.rt_slice()] = 0.9 * model.line_rate
        state[model.rc_slice()] = _RATE
        core, core_state, columns = model.reduced(state)
        assert np.array_equal(core_state[columns], state)
        full_history = _constant_history(state)
        core_history = _constant_history(core_state)
        for t in (0.0, 1.37e-4, 3.99e-4):
            mark_p = model.marking_probability(t, full_history)
            if regime == "p0":
                assert mark_p == 0.0
            elif regime == "p1e-15":
                assert 0.0 < mark_p < 1e-13
            elif regime == "red_cliff":
                assert mark_p == 1.0
            want = model.derivatives(t, state, full_history)
            got = core.derivatives(t, core_state, core_history)
            assert np.array_equal(got[columns], want)
            assert np.array_equal(got[columns], ref_derivatives(
                model, t, state, full_history))

    def test_feedback_jitter_called_as_often(self):
        calls = {"reduced": 0, "full": 0}

        def counting(key):
            def jitter(t):
                calls[key] += 1
                return 1e-6 * (calls[key] % 3)
            return jitter

        params = DCQCNParams.paper_default(num_flows=4, tau_star_us=20.0)
        got = dde.integrate(DCQCNFluidModel(
            params, feedback_jitter=counting("reduced")), 2e-4, dt=1e-6)
        want = dde.integrate(_Unreduced(
            params, feedback_jitter=counting("full")), 2e-4, dt=1e-6)
        assert calls["reduced"] == calls["full"] > 0
        assert np.array_equal(got.states, want.states)

    def test_unequal_initial_rates_fall_back(self):
        params = DCQCNParams.paper_default(num_flows=3)
        model = DCQCNFluidModel(params, initial_rates=[1e6, 1e6, 2e6])
        assert model.reduced(model.initial_state()) is None

    def test_staggered_starts_fall_back(self):
        params = DCQCNParams.paper_default(num_flows=3)
        model = DCQCNFluidModel(params, start_times=[0.0, 0.0, 1e-4])
        assert model.reduced(model.initial_state()) is None

    @pytest.mark.parametrize("block", ["alpha", "rt", "rc"])
    def test_one_perturbed_flow_falls_back(self, block):
        model = _fig04_cell()
        state = model.initial_state()
        column = {"alpha": model.alpha_slice(), "rt": model.rt_slice(),
                  "rc": model.rc_slice()}[block].start + 3
        state[column] = np.nextafter(state[column], 0.0)
        assert model.reduced(state) is None

    def test_signed_zero_is_not_equal(self):
        model = _fig04_cell()
        state = model.initial_state()
        state[model.alpha_slice()] = 0.0
        assert model.reduced(state) is not None
        state[model.alpha_slice().start + 4] = -0.0
        assert model.reduced(state) is None

    def test_pi_model_falls_back(self):
        model = DCQCNPIFluidModel(DCQCNParams.paper_default(num_flows=2),
                                  PIParams.for_dcqcn(100.0))
        assert model.reduced(model.initial_state()) is None

    def test_observer_sees_full_layout(self):
        seen = {"reduced": [], "full": []}

        def recorder(key):
            return lambda t, state: seen[key].append((t, state.copy()))

        params = DCQCNParams.paper_default(num_flows=3, tau_star_us=20.0)
        dde.integrate(DCQCNFluidModel(params), 2e-4, dt=1e-6,
                      observer=recorder("reduced"), observer_stride=7)
        dde.integrate(_Unreduced(params), 2e-4, dt=1e-6,
                      observer=recorder("full"), observer_stride=7)
        assert len(seen["reduced"]) == len(seen["full"]) == 28
        for (t, got), (t_full, want) in zip(seen["reduced"], seen["full"]):
            assert t == t_full
            assert got.shape == (10,)
            assert np.array_equal(got, want)

    def test_failure_state_has_full_layout(self):
        params = DCQCNParams.paper_default(num_flows=3)
        failures = []
        for model in (DCQCNFluidModel(params), _Unreduced(params)):
            with pytest.raises(dde.IntegrationError) as caught:
                dde.integrate(model, 1e-4, dt=1e-6, max_retries=0,
                              divergence_limit=1.0)
            failures.append(caught.value.failure)
        reduced, full = failures
        assert reduced.state.shape == (10,)
        assert np.array_equal(reduced.state, full.state)
        assert str(reduced) == str(full)

    def test_core_emits_no_runtime_warning(self):
        # The byte-counter expm1 overflows to +inf at p = 0.2.
        model = _fig04_cell()
        state = model.initial_state()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in (0.0, 1e-15, 0.2, 1.0):
                state[0] = (_queue_for(model.params, p) if p < 1.0
                            else 2.0 * model.params.red.kmax)
                core, core_state, _ = model.reduced(state)
                core.derivatives(0.0, core_state,
                                 _constant_history(core_state))
            dde.integrate(model, 1e-3, dt=1e-6, initial_state=state)
