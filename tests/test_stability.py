"""Stability toolkit: Jacobians, Bode margins, and the paper's curves."""

import math

import numpy as np
import pytest

from repro.core.params import DCQCNParams, PatchedTimelyParams
from repro.core.stability import bode, linearize
from repro.core.stability.dcqcn_margin import (DCQCNLoopGain,
                                               dcqcn_phase_margin,
                                               margin_vs_flows)
from repro.core.stability.timely_margin import (
    PatchedTimelyLoopGain, patched_timely_phase_margin)
from repro.core.stability.timely_margin import (
    margin_vs_flows as timely_margin_vs_flows)


class TestJacobian:
    def test_linear_function_exact(self):
        matrix = np.array([[1.0, 2.0], [3.0, 4.0]])
        jac = linearize.jacobian(lambda x: matrix @ x,
                                 np.array([0.5, -0.3]))
        assert jac == pytest.approx(matrix, rel=1e-6)

    def test_quadratic_function(self):
        jac = linearize.jacobian(lambda x: np.array([x[0] ** 2]),
                                 np.array([3.0]))
        assert jac[0, 0] == pytest.approx(6.0, rel=1e-5)

    def test_rectangular_shapes(self):
        def fn(x):
            return np.array([x[0] + x[1], x[1] * x[2],
                             x[0] - x[2], x[0]])
        jac = linearize.jacobian(fn, np.array([1.0, 2.0, 3.0]))
        assert jac.shape == (4, 3)
        assert jac[1] == pytest.approx([0.0, 3.0, 2.0], abs=1e-5)


class TestTransferFunction:
    def test_first_order_lag(self):
        # dx/dt = -a x + u, y = x  ->  G(s) = 1/(s + a).
        a0 = np.array([[-2.0]])
        b = np.array([1.0])
        c = np.array([1.0])
        s = 1j * 3.0
        value = linearize.transfer_function(s, a0, b, c)
        assert value == pytest.approx(1.0 / (s + 2.0))

    def test_delayed_self_feedback(self):
        # dx/dt = -x(t - T) + u: G(s) = 1/(s + e^{-sT}).
        tau = 0.1
        s = 1j * 5.0
        value = linearize.transfer_function(
            s, np.array([[0.0]]), np.array([1.0]), np.array([1.0]),
            a_delayed=[(np.array([[-1.0]]), tau)])
        assert value == pytest.approx(1.0 / (s + np.exp(-s * tau)))


class TestPhaseMargin:
    def test_delayed_integrator_analytic(self):
        """L(s) = K e^{-sT} / s has PM = 90 - wc*T*180/pi, wc = K."""
        gain, delay = 100.0, 2e-3

        def loop(omegas):
            s = 1j * omegas
            return gain * np.exp(-s * delay) / s

        result = bode.phase_margin(loop, omega_min=1.0, omega_max=1e4)
        expected = 90.0 - math.degrees(gain * delay)
        assert result.margin_deg == pytest.approx(expected, abs=0.5)
        assert result.crossover_rad_s == pytest.approx(gain, rel=0.01)

    def test_pure_integrator_margin_90(self):
        def loop(omegas):
            return 10.0 / (1j * omegas)

        result = bode.phase_margin(loop, omega_min=0.1, omega_max=1e3)
        assert result.margin_deg == pytest.approx(90.0, abs=0.5)

    def test_unstable_when_delay_large(self):
        def loop(omegas):
            s = 1j * omegas
            return 100.0 * np.exp(-s * 0.1) / s

        result = bode.phase_margin(loop, omega_min=1.0, omega_max=1e4)
        assert result.margin_deg < 0
        assert not result.stable

    def test_no_crossover_reports_infinite_margin(self):
        def loop(omegas):
            return 0.01 / (1.0 + 1j * omegas)

        result = bode.phase_margin(loop, omega_min=0.1, omega_max=1e3)
        assert math.isinf(result.margin_deg)
        assert result.stable

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            bode.phase_margin(lambda w: w, omega_min=10, omega_max=1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bode.phase_margin(lambda w: np.array([1.0]),
                              omega_min=1, omega_max=10, num_points=50)


class TestGainMargin:
    def test_delayed_integrator_analytic(self):
        """L = K e^{-sT}/s: phase hits -180 at w = pi/(2T), so
        GM = -20 log10(K * 2T / pi)."""
        gain, delay = 100.0, 2e-3

        def loop(omegas):
            s = 1j * omegas
            return gain * np.exp(-s * delay) / s

        measured = bode.gain_margin(loop, omega_min=1.0,
                                    omega_max=1e5)
        w_pc = math.pi / (2 * delay)
        expected = -20.0 * math.log10(gain / w_pc)
        assert measured == pytest.approx(expected, abs=0.1)
        assert measured > 0  # this loop is stable

    def test_first_order_lag_never_reaches_minus_180(self):
        def loop(omegas):
            return 5.0 / (1.0 + 1j * omegas)

        assert math.isinf(bode.gain_margin(loop, omega_min=0.1,
                                           omega_max=1e4))

    def test_negative_for_unstable_loop(self):
        def loop(omegas):
            s = 1j * omegas
            return 10000.0 * np.exp(-s * 2e-3) / s

        assert bode.gain_margin(loop, omega_min=1.0,
                                omega_max=1e5) < 0

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            bode.gain_margin(lambda w: w, omega_min=5, omega_max=1)

    def test_dcqcn_gain_margin_consistent_with_phase_margin(self):
        """Both margins agree on the stability verdict."""
        stable = DCQCNParams.paper_default(num_flows=10,
                                           tau_star_us=4.0)
        unstable = DCQCNParams.paper_default(num_flows=10,
                                             tau_star_us=85.0)
        assert bode.gain_margin(DCQCNLoopGain(stable)) > 0
        assert bode.gain_margin(DCQCNLoopGain(unstable)) < 0


class TestDCQCNMargins:
    def test_loop_gain_negative_real_dc(self, dcqcn_params):
        """At low frequency L(jw) ~ +|L| e^{-j90}: integrator phase."""
        loop = DCQCNLoopGain(dcqcn_params)
        value = loop(np.array([1.0]))[0]
        assert abs(value) > 1.0  # integral action: huge DC gain
        assert np.angle(value) == pytest.approx(-np.pi / 2, abs=0.1)

    def test_controller_dc_gain_negative(self, dcqcn_params):
        """More marking must reduce the rate."""
        loop = DCQCNLoopGain(dcqcn_params)
        g0 = loop.controller(1e-3 + 0j)
        assert g0.real < 0

    def test_default_small_delay_stable(self):
        params = DCQCNParams.paper_default(num_flows=10,
                                           tau_star_us=4.0)
        assert dcqcn_phase_margin(params).stable

    def test_large_delay_ten_flows_unstable(self):
        params = DCQCNParams.paper_default(num_flows=10,
                                           tau_star_us=85.0)
        assert not dcqcn_phase_margin(params).stable

    def test_large_delay_two_and_many_flows_stable(self):
        """The paper's headline non-monotonicity (Fig. 4)."""
        for n in (2, 64):
            params = DCQCNParams.paper_default(num_flows=n,
                                               tau_star_us=85.0)
            assert dcqcn_phase_margin(params).stable, f"N={n}"

    def test_margin_decreases_with_delay(self):
        margins = [dcqcn_phase_margin(
            DCQCNParams.paper_default(num_flows=10,
                                      tau_star_us=d)).margin_deg
            for d in (4, 25, 55, 85)]
        assert all(a > b for a, b in zip(margins, margins[1:]))

    def test_non_monotone_in_flow_count(self):
        params = DCQCNParams.paper_default(tau_star_us=85.0)
        margins = margin_vs_flows(params, (1, 10, 100))
        assert margins[1] < margins[0]
        assert margins[1] < margins[2]

    def test_smaller_rate_ai_stabilizes(self):
        """Fig. 3(b): gentler additive increase raises the margin."""
        base = DCQCNParams.paper_default(num_flows=10,
                                         tau_star_us=100.0)
        small = base.replace(rate_ai=base.rate_ai / 4)
        assert dcqcn_phase_margin(small).margin_deg > \
            dcqcn_phase_margin(base).margin_deg

    def test_larger_kmax_stabilizes(self):
        """Fig. 3(c): shallower RED slope raises the margin."""
        base = DCQCNParams.paper_default(num_flows=10,
                                         tau_star_us=100.0)
        red = type(base.red)(kmin=base.red.kmin,
                             kmax=base.red.kmax * 5,
                             pmax=base.red.pmax)
        wide = base.replace(red=red)
        assert dcqcn_phase_margin(wide).margin_deg > \
            dcqcn_phase_margin(base).margin_deg


class TestPatchedTimelyMargins:
    def test_moderate_n_stable(self):
        patched = PatchedTimelyParams.paper_default(num_flows=10)
        assert patched_timely_phase_margin(patched).stable

    def test_large_n_unstable(self):
        patched = PatchedTimelyParams.paper_default(num_flows=40)
        assert not patched_timely_phase_margin(patched).stable

    def test_margin_falls_rapidly_past_crossover(self):
        patched = PatchedTimelyParams.paper_default()
        margins = timely_margin_vs_flows(patched, (30, 40, 50, 60))
        assert all(a > b for a, b in zip(margins, margins[1:]))

    def test_feedback_delay_grows_with_n(self):
        """The Fig. 11 mechanism: queue -> delay coupling."""
        small = PatchedTimelyLoopGain(
            PatchedTimelyParams.paper_default(num_flows=2))
        large = PatchedTimelyLoopGain(
            PatchedTimelyParams.paper_default(num_flows=30))
        assert large.tau_feedback > small.tau_feedback

    def test_margin_matches_fluid_behaviour(self):
        """Linear verdicts agree with the nonlinear model's tail."""
        from repro.core.fluid import dde
        from repro.core.fluid.timely import TimelyFluidModel
        stable = PatchedTimelyParams.paper_default(num_flows=10)
        trace = dde.integrate(TimelyFluidModel(stable), 0.15,
                              dt=1e-6, record_stride=50)
        rel_osc = trace.tail_std("q", 0.03) / trace.tail_mean("q", 0.03)
        assert patched_timely_phase_margin(stable).stable
        assert rel_osc < 0.02
