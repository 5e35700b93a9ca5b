"""Patched TIMELY fluid model (Eq. 29/30) and its PI variant."""

import numpy as np
import pytest

from repro import units
from repro.core.fluid import dde
from repro.core.fluid.history import UniformHistory
from repro.core.fluid.dcqcn import DCQCNFluidModel
from repro.core.fluid.timely import TimelyFluidModel
from repro.core.params import PIParams, PatchedTimelyParams


def rate_derivatives(model, queue, gradients):
    """The model's Eq. 29 rate derivatives at its initial rates.

    The history is flat, so the delayed queue is ``queue``.
    """
    state = model.initial_state()
    state[model.queue_index] = queue
    state[model.gradient_slice()] = gradients
    history = UniformHistory(0.0, 1e-6, state)
    return np.array(model.derivatives(0.0, state.tolist(),
                                      history))[model.rate_slice()]


def update_intervals(params, rates):
    """Eq. 23: ``tau*_i = max(Seg / R_i, D_minRTT)``."""
    return np.maximum(params.base.segment / rates, params.base.min_rtt)


class TestWeights:
    def test_vectorized_matches_scalar(self):
        """The N-flow right-hand side applies the Eq. 30 ``w(g)``."""
        gradients = np.array([-1.0, -0.1, 0.0, 0.1, 1.0])
        params = PatchedTimelyParams.paper_default(capacity_gbps=10.0,
                                                   num_flows=5)
        base = params.base
        model = TimelyFluidModel(params)
        queue = 2.0 * params.q_ref  # in band: Eq. 29's error e = 1
        rates = np.full(5, base.fair_share)
        dr = rate_derivatives(model, queue, gradients)
        # Eq. 29 at e = 1, dR tau* = delta - w (delta + beta R), for w.
        tau = update_intervals(params, rates)
        vectorized = (base.delta - dr * tau) \
            / (base.delta + params.beta_band * rates)
        scalar = [params.weight(g) for g in gradients]
        assert vectorized == pytest.approx(scalar)


class TestRateLaw:
    def rate_deriv(self, params, queue, gradient):
        return rate_derivatives(TimelyFluidModel(params), queue, gradient)

    def test_stationary_at_eq31_queue(self, patched_params):
        deriv = self.rate_deriv(patched_params,
                                patched_params.fixed_point_queue, 0.0)
        scale = patched_params.base.delta / patched_params.base.min_rtt
        assert np.all(np.abs(deriv) < 1e-9 * scale)

    def test_decreases_above_eq31_queue(self, patched_params):
        deriv = self.rate_deriv(patched_params,
                                patched_params.fixed_point_queue * 1.5,
                                0.0)
        assert np.all(deriv < 0)

    def test_increases_below_eq31_queue(self, patched_params):
        queue = (patched_params.base.q_low
                 + patched_params.fixed_point_queue) / 2
        deriv = self.rate_deriv(patched_params, queue, 0.0)
        assert np.all(deriv > 0)

    def test_t_high_branch_uses_base_beta(self, patched_params):
        """The emergency brake must stay strong (base beta, not 0.008)."""
        queue = patched_params.base.q_high * 2.0
        deriv = self.rate_deriv(patched_params, queue, 0.0)
        base = patched_params.base
        rates = np.full(2, base.fair_share)
        tau = update_intervals(patched_params, rates)
        expected = -(base.beta / tau) * (1 - base.q_high / queue) * rates
        assert deriv == pytest.approx(expected)


class TestConvergence:
    def test_asymmetric_start_converges_to_fair(self, patched_params):
        mtu = patched_params.base.mtu_bytes
        model = TimelyFluidModel(
            patched_params,
            initial_rates=[units.gbps_to_pps(7, mtu),
                           units.gbps_to_pps(3, mtu)])
        trace = dde.integrate(model, 0.08, dt=1e-6, record_stride=20)
        r0 = trace.tail_mean("r[0]", 0.01)
        r1 = trace.tail_mean("r[1]", 0.01)
        assert r0 == pytest.approx(r1, rel=0.05)
        assert r0 == pytest.approx(patched_params.base.fair_share,
                                   rel=0.05)

    def test_queue_converges_to_eq31(self, patched_params):
        model = TimelyFluidModel(patched_params)
        trace = dde.integrate(model, 0.08, dt=1e-6, record_stride=20)
        assert trace.tail_mean("q", 0.01) == pytest.approx(
            patched_params.fixed_point_queue, rel=0.03)
        assert trace.tail_std("q", 0.01) < \
            0.02 * patched_params.fixed_point_queue

    def test_large_n_oscillates(self):
        """Fig. 12(c): beyond the Fig. 11 margin crossover."""
        patched = PatchedTimelyParams.paper_default(num_flows=40)
        trace = dde.integrate(TimelyFluidModel(patched), 0.15,
                              dt=1e-6, record_stride=50)
        rel = trace.tail_std("q", 0.03) / trace.tail_mean("q", 0.03)
        assert rel > 0.05


class TestDCQCNPIModel:
    def test_state_layout_appends_p_mark(self, dcqcn_params):
        pi = PIParams.for_dcqcn(100.0)
        model = DCQCNFluidModel(dcqcn_params, pi=pi)
        labels = model.state_labels()
        assert labels[-1] == "p_mark"
        assert model.initial_state().shape == (len(labels),)

    def test_marking_is_the_delayed_pi_state(self, dcqcn_params):
        pi = PIParams.for_dcqcn(100.0)
        model = DCQCNFluidModel(dcqcn_params, pi=pi)
        state = model.initial_state()
        state[model.p_mark_index] = 0.4
        history = UniformHistory(0.0, 1e-6, state)
        assert model.marking_probability(1.0, history) == \
            pytest.approx(0.4)

    def test_p_integrates_queue_error(self, dcqcn_params):
        # Rates exactly fill the link (dq/dt = 0), so the proportional
        # term vanishes and the integral term alone must push p up
        # while the queue sits above the reference.
        pi = PIParams.for_dcqcn(100.0)
        half = dcqcn_params.capacity / 2
        model = DCQCNFluidModel(dcqcn_params, pi=pi,
                                initial_rates=[half, half],
                                initial_queue=2 * pi.q_ref)
        state = model.initial_state()
        state[model.p_mark_index] = 0.5
        history = UniformHistory(0.0, 1e-6, state)
        deriv = np.array(model.derivatives(0.0, state.tolist(), history))
        assert deriv[model.queue_index] == pytest.approx(0.0)
        assert deriv[model.p_mark_index] == pytest.approx(pi.k2)

    def test_anti_windup_freezes_at_floor(self, dcqcn_params):
        pi = PIParams.for_dcqcn(100.0)
        model = DCQCNFluidModel(dcqcn_params, pi=pi,
                                initial_rates=[1e5, 1e5],
                                initial_queue=0.0)
        state = model.initial_state()  # p_mark = 0, queue empty
        history = UniformHistory(0.0, 1e-6, state)
        deriv = np.array(model.derivatives(0.0, state.tolist(), history))
        assert deriv[model.p_mark_index] == 0.0

    def test_clamp_bounds_p(self, dcqcn_params, integrator_bounded):
        pi = PIParams.for_dcqcn(100.0)
        model = DCQCNFluidModel(dcqcn_params, pi=pi)
        state = model.initial_state()
        state[model.p_mark_index] = 1.7
        assert integrator_bounded(model, state)[model.p_mark_index] == 1.0


class TestPatchedTimelyPIModel:
    def test_state_layout_appends_per_flow_p(self, patched_params):
        pi = PIParams.for_timely(300.0)
        model = TimelyFluidModel(patched_params, pi=pi)
        labels = model.state_labels()
        assert labels[-2:] == ["p[0]", "p[1]"]

    def test_initial_p_override(self, patched_params):
        pi = PIParams.for_timely(300.0)
        model = TimelyFluidModel(patched_params, pi=pi,
                                 initial_p=[0.1, 0.4])
        state = model.initial_state()
        assert state[model.p_slice()] == pytest.approx([0.1, 0.4])

    def test_rejects_wrong_initial_p_shape(self, patched_params):
        pi = PIParams.for_timely(300.0)
        with pytest.raises(ValueError):
            TimelyFluidModel(patched_params, pi=pi, initial_p=[0.1])

    def test_unequal_p_gives_unequal_rate_derivatives(self,
                                                      patched_params):
        pi = PIParams.for_timely(300.0)
        model = TimelyFluidModel(patched_params, pi=pi,
                                 initial_p=[0.1, 0.4],
                                 initial_queue=pi.q_ref)
        state = model.initial_state()
        history = UniformHistory(0.0, 1e-6, state)
        deriv = np.array(model.derivatives(0.0, state.tolist(), history))
        dr = deriv[model.rate_slice()]
        # Larger p_i means stronger decrease for that flow.
        assert dr[0] > dr[1]

    def test_queue_pins_but_rates_stay_split(self, patched_params):
        """Theorem 6, delay side: delay bounded, fairness lost."""
        pi = PIParams.for_timely(300.0)
        fair = patched_params.base.fair_share
        model = TimelyFluidModel(
            patched_params, pi=pi, initial_rates=[fair, fair],
            start_times=[0.0, 0.05])
        trace = dde.integrate(model, 0.4, dt=1e-6, record_stride=50)
        queue = trace.tail_mean("q", 0.05)
        assert queue == pytest.approx(pi.q_ref, rel=0.25)
        r0 = trace.tail_mean("r[0]", 0.05)
        r1 = trace.tail_mean("r[1]", 0.05)
        assert abs(r0 - r1) > 0.05 * fair
