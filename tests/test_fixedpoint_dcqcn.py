"""Theorem 1 / Eq. 14: DCQCN's unique fixed point."""

import numpy as np
import pytest

from repro.core.fixedpoint.dcqcn import (approximate_p_star,
                                         fixed_point_mismatch,
                                         mismatch_is_monotone,
                                         solve_fixed_point)
from repro.core.fluid.dcqcn import DCQCNFluidModel
from repro.core.fluid.history import UniformHistory
from repro.core.params import DCQCNParams


class TestSolveFixedPoint:
    def test_rates_are_fair_share(self, dcqcn_ten_flows):
        fp = solve_fixed_point(dcqcn_ten_flows)
        assert fp.rate == pytest.approx(dcqcn_ten_flows.fair_share)

    def test_p_star_small_and_positive(self, dcqcn_params):
        fp = solve_fixed_point(dcqcn_params)
        assert 0.0 < fp.p < 0.05

    def test_mismatch_zero_at_solution(self, dcqcn_params):
        fp = solve_fixed_point(dcqcn_params)
        residual = fixed_point_mismatch(fp.p, dcqcn_params)
        scale = dcqcn_params.tau ** 2 * dcqcn_params.rate_ai \
            * dcqcn_params.fair_share
        assert abs(residual) < 1e-6 * scale

    def test_queue_consistent_with_red_inverse(self, dcqcn_params):
        fp = solve_fixed_point(dcqcn_params)
        assert dcqcn_params.red.marking_probability(fp.queue) == \
            pytest.approx(fp.p, rel=1e-9)

    def test_target_rate_above_current(self, dcqcn_params):
        fp = solve_fixed_point(dcqcn_params)
        assert fp.target_rate > fp.rate

    def test_p_star_grows_with_flows(self):
        ps = [solve_fixed_point(
            DCQCNParams.paper_default(num_flows=n)).p
            for n in (2, 5, 10, 20)]
        assert all(a < b for a, b in zip(ps, ps[1:]))

    def test_queue_saturates_at_kmax_without_extension(self):
        params = DCQCNParams.paper_default(num_flows=64)
        fp = solve_fixed_point(params)
        assert fp.p > params.red.pmax
        assert fp.queue == pytest.approx(params.red.kmax)

    def test_extended_red_queue_beyond_kmax(self):
        params = DCQCNParams.paper_default(num_flows=64)
        fp = solve_fixed_point(params, extend_red=True)
        assert fp.queue > params.red.kmax

    def test_alpha_matches_eq10(self, dcqcn_params):
        fp = solve_fixed_point(dcqcn_params)
        expected = 1.0 - (1.0 - fp.p) ** (
            dcqcn_params.tau_prime * fp.rate)
        assert fp.alpha == pytest.approx(expected, rel=1e-9)

    def test_as_vector_layout(self, dcqcn_params):
        fp = solve_fixed_point(dcqcn_params)
        vec = fp.as_vector(dcqcn_params)
        n = dcqcn_params.num_flows
        assert vec.shape == (1 + 3 * n,)
        assert vec[0] == pytest.approx(fp.queue)
        assert np.all(vec[1 + 2 * n:] == pytest.approx(fp.rate))


class TestUniqueness:
    @pytest.mark.parametrize("n", [1, 2, 10, 30, 64])
    def test_mismatch_monotone(self, n):
        params = DCQCNParams.paper_default(num_flows=n)
        assert mismatch_is_monotone(params)

    def test_mismatch_sign_change_brackets_root(self, dcqcn_params):
        fp = solve_fixed_point(dcqcn_params)
        assert fixed_point_mismatch(fp.p / 2, dcqcn_params) < 0
        assert fixed_point_mismatch(min(fp.p * 2, 0.99),
                                    dcqcn_params) > 0

    def test_mismatch_rejects_out_of_range_p(self, dcqcn_params):
        with pytest.raises(ValueError):
            fixed_point_mismatch(0.0, dcqcn_params)
        with pytest.raises(ValueError):
            fixed_point_mismatch(1.0, dcqcn_params)


class TestEq14Approximation:
    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_within_factor_two_of_exact(self, n):
        params = DCQCNParams.paper_default(num_flows=n)
        exact = solve_fixed_point(params).p
        approx = approximate_p_star(params)
        assert approx == pytest.approx(exact, rel=1.0)

    def test_scaling_with_n_two_thirds(self):
        # For B >> N/(T C) regimes Eq. 14 gives p* ~ N^(2/3).
        p2 = approximate_p_star(DCQCNParams.paper_default(num_flows=2))
        p16 = approximate_p_star(DCQCNParams.paper_default(num_flows=16))
        assert p16 / p2 > 8 ** (2.0 / 3.0) * 0.9

    def test_decreases_with_capacity(self):
        p40 = approximate_p_star(
            DCQCNParams.paper_default(capacity_gbps=40))
        p100 = approximate_p_star(
            DCQCNParams.paper_default(capacity_gbps=100))
        assert p100 < p40


class TestStationarity:
    def test_fluid_rhs_vanishes_at_fixed_point(self, dcqcn_params):
        """The Theorem 1 point must zero the Fig. 1 dynamics."""
        fp = solve_fixed_point(dcqcn_params)
        model = DCQCNFluidModel(dcqcn_params)
        state = fp.as_vector(dcqcn_params)
        history = UniformHistory(0.0, 1e-6, state)
        deriv = np.array(model.derivatives(0.0, state.tolist(), history))
        # Normalize each block by its state scale.
        assert abs(deriv[0]) / dcqcn_params.capacity < 1e-9
        assert np.all(np.abs(deriv[model.alpha_slice()]) < 1e-6)
        rate_scale = dcqcn_params.fair_share
        assert np.all(np.abs(deriv[model.rt_slice()]) / rate_scale
                      < 1e-4)
        assert np.all(np.abs(deriv[model.rc_slice()]) / rate_scale
                      < 1e-4)

    def test_fluid_started_at_fixed_point_stays(self, dcqcn_params):
        from repro.core.fluid import dde
        fp = solve_fixed_point(dcqcn_params)
        model = DCQCNFluidModel(dcqcn_params)
        trace = dde.integrate(model, t_end=0.01, dt=2e-6,
                              initial_state=fp.as_vector(dcqcn_params),
                              record_stride=10)
        assert trace.final("q") == pytest.approx(fp.queue, rel=0.05)
        assert trace.final("rc[0]") == pytest.approx(fp.rate, rel=0.02)
