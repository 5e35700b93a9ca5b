"""Property-based tests over the analytic core (hypothesis).

Random-but-sane parameter sets must preserve the theorems' structure:
DCQCN's fixed point exists, is unique, and is stationary; Eq. 31 is
exact for patched TIMELY; linearizations agree regardless of the
operating point.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.core.fixedpoint.dcqcn import (fixed_point_mismatch,
                                         solve_fixed_point)
from repro.core.fixedpoint.timely import (patched_fixed_point,
                                          patched_residual)
from repro.core.fluid.dcqcn import DCQCNFluidModel
from repro.core.fluid.history import UniformHistory
from repro.core.params import DCQCNParams, PatchedTimelyParams
from repro.core.stability.analytic import flow_jacobians
from repro.core.stability.dcqcn_margin import DCQCNLoopGain

#: Parameter-space strategy for DCQCN: capacities 10-100 Gbps, up to
#: 40 flows, sane timer ranges.
dcqcn_params = st.builds(
    lambda gbps, n, tau_us, rai_mbps: DCQCNParams.paper_default(
        capacity_gbps=gbps, num_flows=n).replace(
            tau=units.us(tau_us),
            tau_prime=units.us(tau_us + 5.0),
            rate_ai=units.mbps_to_pps(rai_mbps)),
    st.floats(min_value=10.0, max_value=100.0),
    st.integers(min_value=1, max_value=40),
    st.floats(min_value=20.0, max_value=100.0),
    st.floats(min_value=5.0, max_value=200.0),
)

patched_params = st.builds(
    lambda gbps, n: PatchedTimelyParams.paper_default(
        capacity_gbps=gbps, num_flows=n),
    st.floats(min_value=5.0, max_value=40.0),
    st.integers(min_value=1, max_value=30),
)


class TestDCQCNFixedPointProperties:
    @given(dcqcn_params)
    @settings(max_examples=30, deadline=None)
    def test_fixed_point_exists_and_is_interior(self, params):
        fp = solve_fixed_point(params, extend_red=True)
        assert 0.0 < fp.p < 1.0
        assert fp.queue > params.red.kmin
        assert fp.rate == pytest.approx(params.fair_share)
        assert 0.0 < fp.alpha < 1.0
        assert fp.target_rate > fp.rate

    @given(dcqcn_params)
    @settings(max_examples=20, deadline=None)
    def test_mismatch_brackets_root(self, params):
        fp = solve_fixed_point(params, extend_red=True)
        assert fixed_point_mismatch(fp.p * 0.5, params) < 0
        high = min(fp.p * 2.0, 0.99)
        assert fixed_point_mismatch(high, params) > 0

    @given(dcqcn_params)
    @settings(max_examples=15, deadline=None)
    def test_fixed_point_is_stationary(self, params):
        fp = solve_fixed_point(params, extend_red=True)
        model = DCQCNFluidModel(params, extend_red=True)
        state = fp.as_vector(params)
        history = UniformHistory(0.0, 1e-6, state)
        deriv = np.array(model.derivatives(0.0, state.tolist(), history))
        rate_scale = params.fair_share
        assert abs(deriv[0]) < 1e-6 * params.capacity
        assert np.all(np.abs(deriv[model.rc_slice()]) < 1e-3
                      * rate_scale)

    @given(dcqcn_params)
    @settings(max_examples=15, deadline=None)
    def test_analytic_jacobians_match_numeric(self, params):
        numeric = DCQCNLoopGain(params, jacobian_mode="numeric")
        fp = numeric.fixed_point
        closed = flow_jacobians(params, fp)
        assert closed.m0 == pytest.approx(numeric.m0, rel=1e-4,
                                          abs=1e-6)
        assert closed.b_p == pytest.approx(numeric.b_p, rel=1e-4)


class TestPatchedTimelyProperties:
    @given(patched_params)
    @settings(max_examples=30, deadline=None)
    def test_eq31_point_is_stationary_when_in_band(self, patched):
        base = patched.base
        if not base.q_low <= patched.fixed_point_queue <= base.q_high:
            with pytest.raises(ValueError):
                patched_fixed_point(patched)
            return
        point = patched_fixed_point(patched)
        scale = base.delta / base.min_rtt
        assert patched_residual(patched, point) < 1e-9 * scale

    @given(patched_params,
           st.floats(min_value=0.5, max_value=2.0))
    @settings(max_examples=30, deadline=None)
    def test_perturbed_queue_is_not_stationary(self, patched, factor):
        base = patched.base
        if not base.q_low <= patched.fixed_point_queue <= base.q_high:
            return
        point = patched_fixed_point(patched)
        if abs(factor - 1.0) < 0.05:
            return
        from repro.core.fixedpoint.timely import TimelyFixedPoint
        off = TimelyFixedPoint(rates=point.rates,
                               queue=point.queue * factor)
        assert patched_residual(patched, off) > 0
