"""Parameter dataclass validation and the RED profile (Eq. 3 / Eq. 9)."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import units
from repro.core.params import (
    DCQCNParams,
    DCTCPParams,
    PatchedTimelyParams,
    PIParams,
    REDParams,
    TimelyParams,
)


class TestREDParams:
    def test_paper_default_thresholds(self):
        red = REDParams.paper_default()
        assert red.kmin == pytest.approx(5.0)
        assert red.kmax == pytest.approx(200.0)
        assert red.pmax == pytest.approx(0.01)

    def test_marking_zero_below_kmin(self):
        red = REDParams.paper_default()
        assert red.marking_probability(4.9) == 0.0
        assert red.marking_probability(0.0) == 0.0

    def test_marking_one_above_kmax(self):
        red = REDParams.paper_default()
        assert red.marking_probability(201.0) == 1.0

    def test_marking_pmax_at_kmax(self):
        red = REDParams.paper_default()
        assert red.marking_probability(200.0) == pytest.approx(0.01)

    def test_marking_midpoint(self):
        red = REDParams(kmin=10, kmax=110, pmax=0.1)
        assert red.marking_probability(60) == pytest.approx(0.05)

    def test_inverse_roundtrip_on_linear_segment(self):
        red = REDParams.paper_default()
        q = red.queue_for_probability(0.005)
        assert red.marking_probability(q) == pytest.approx(0.005)

    def test_inverse_rejects_p_above_pmax_without_extend(self):
        red = REDParams.paper_default()
        with pytest.raises(ValueError):
            red.queue_for_probability(0.05)

    def test_inverse_extends_beyond_pmax(self):
        red = REDParams.paper_default()
        q = red.queue_for_probability(0.02, extend=True)
        assert q > red.kmax

    def test_slope(self):
        red = REDParams.paper_default()
        assert red.slope == pytest.approx(0.01 / 195.0)

    def test_rejects_kmax_below_kmin(self):
        with pytest.raises(ValueError):
            REDParams(kmin=100, kmax=50, pmax=0.1)

    def test_rejects_bad_pmax(self):
        with pytest.raises(ValueError):
            REDParams(kmin=5, kmax=200, pmax=0.0)
        with pytest.raises(ValueError):
            REDParams(kmin=5, kmax=200, pmax=1.5)

    @given(st.floats(min_value=0.0, max_value=500.0))
    def test_probability_in_unit_interval(self, queue):
        red = REDParams.paper_default()
        p = red.marking_probability(queue)
        assert 0.0 <= p <= 1.0

    @given(st.floats(min_value=0.0, max_value=500.0),
           st.floats(min_value=0.0, max_value=500.0))
    def test_probability_monotone_in_queue(self, q1, q2):
        red = REDParams.paper_default()
        low, high = sorted([q1, q2])
        assert red.marking_probability(low) <= \
            red.marking_probability(high)


class TestDCQCNParams:
    def test_paper_default_values(self, dcqcn_params):
        assert dcqcn_params.g == pytest.approx(1 / 256)
        assert dcqcn_params.tau == pytest.approx(units.us(50))
        assert dcqcn_params.tau_prime == pytest.approx(units.us(55))
        assert dcqcn_params.timer == pytest.approx(units.us(55))
        assert dcqcn_params.fast_recovery_steps == 5
        assert dcqcn_params.byte_counter == pytest.approx(10240.0)
        assert dcqcn_params.rate_ai == pytest.approx(
            units.mbps_to_pps(40))

    def test_fair_share(self, dcqcn_ten_flows):
        assert dcqcn_ten_flows.fair_share == pytest.approx(
            dcqcn_ten_flows.capacity / 10)

    def test_replace_changes_one_field(self, dcqcn_params):
        swept = dcqcn_params.replace(num_flows=7)
        assert swept.num_flows == 7
        assert swept.capacity == dcqcn_params.capacity

    def test_rejects_tau_prime_below_tau(self, dcqcn_params):
        with pytest.raises(ValueError):
            dcqcn_params.replace(tau_prime=units.us(10))

    def test_rejects_nonpositive_capacity(self, dcqcn_params):
        with pytest.raises(ValueError):
            dcqcn_params.replace(capacity=0.0)

    def test_rejects_negative_tau_star(self, dcqcn_params):
        with pytest.raises(ValueError):
            dcqcn_params.replace(tau_star=-1e-6)

    def test_frozen(self, dcqcn_params):
        with pytest.raises(dataclasses.FrozenInstanceError):
            dcqcn_params.num_flows = 5


class TestTimelyParams:
    def test_footnote4_values(self, timely_params):
        assert timely_params.ewma_alpha == pytest.approx(0.875)
        assert timely_params.beta == pytest.approx(0.8)
        assert timely_params.t_low == pytest.approx(units.us(50))
        assert timely_params.t_high == pytest.approx(units.us(500))
        assert timely_params.min_rtt == pytest.approx(units.us(20))
        assert timely_params.delta == pytest.approx(
            units.mbps_to_pps(10))

    def test_queue_thresholds_scale_with_capacity(self, timely_params):
        assert timely_params.q_low == pytest.approx(
            timely_params.capacity * timely_params.t_low)
        assert timely_params.q_high > timely_params.q_low

    def test_rejects_t_high_below_t_low(self, timely_params):
        with pytest.raises(ValueError):
            timely_params.replace(t_high=units.us(10))

    def test_rejects_bad_ewma(self, timely_params):
        with pytest.raises(ValueError):
            timely_params.replace(ewma_alpha=1.5)


class TestPatchedTimelyParams:
    def test_q_ref_is_c_times_t_low(self, patched_params):
        base = patched_params.base
        assert patched_params.q_ref == pytest.approx(
            base.capacity * base.t_low)

    def test_beta_band_default(self, patched_params):
        assert patched_params.beta_band == pytest.approx(0.008)

    def test_segment_is_16kb(self, patched_params):
        assert patched_params.base.segment == pytest.approx(16.0)

    def test_fixed_point_queue_eq31(self, patched_params):
        base = patched_params.base
        expected = (base.num_flows * base.delta * patched_params.q_ref
                    / (patched_params.beta_band * base.capacity)
                    + patched_params.q_ref)
        assert patched_params.fixed_point_queue == pytest.approx(expected)

    def test_fixed_point_queue_grows_with_n(self):
        q2 = PatchedTimelyParams.paper_default(num_flows=2)
        q20 = PatchedTimelyParams.paper_default(num_flows=20)
        assert q20.fixed_point_queue > q2.fixed_point_queue

    def test_weight_endpoints(self, patched_params):
        assert patched_params.weight(-1.0) == 0.0
        assert patched_params.weight(1.0) == 1.0
        assert patched_params.weight(0.0) == pytest.approx(0.5)

    @given(st.floats(min_value=-10, max_value=10))
    def test_weight_bounded(self, g):
        params = PatchedTimelyParams.paper_default()
        assert 0.0 <= params.weight(g) <= 1.0

    @given(st.floats(min_value=-2, max_value=2),
           st.floats(min_value=-2, max_value=2))
    def test_weight_monotone(self, g1, g2):
        params = PatchedTimelyParams.paper_default()
        low, high = sorted([g1, g2])
        assert params.weight(low) <= params.weight(high)

    def test_replace_base(self, patched_params):
        swept = patched_params.replace_base(num_flows=9)
        assert swept.base.num_flows == 9
        assert swept.q_ref == patched_params.q_ref


class TestPIParams:
    def test_for_dcqcn_reference_in_packets(self):
        pi = PIParams.for_dcqcn(100.0)
        assert pi.q_ref == pytest.approx(100.0)

    def test_for_timely_gains_positive(self):
        pi = PIParams.for_timely(300.0)
        assert pi.k1 > 0 and pi.k2 > 0

    def test_rejects_negative_k1(self):
        with pytest.raises(ValueError):
            PIParams(q_ref=100, k1=-1.0, k2=1.0)

    def test_rejects_bad_clamp_window(self):
        with pytest.raises(ValueError):
            PIParams(q_ref=100, k1=1.0, k2=1.0, p_min=0.5, p_max=0.5)


#: A valid instance of each parameter class, to corrupt one field of.
_VALID = {
    "REDParams": REDParams.paper_default(),
    "DCQCNParams": DCQCNParams.paper_default(),
    "TimelyParams": TimelyParams.paper_default(),
    "PatchedTimelyParams": PatchedTimelyParams.paper_default(),
    "DCTCPParams": DCTCPParams(),
    "PIParams": PIParams.for_dcqcn(100.0),
}

#: Every numeric field a constructor validates, by class.
_CHECKED_FIELDS = {
    "REDParams": ("kmin", "kmax", "pmax"),
    "DCQCNParams": ("capacity", "num_flows", "g", "tau", "tau_prime",
                    "tau_star", "fast_recovery_steps", "byte_counter",
                    "timer", "rate_ai", "rate_hai", "mtu_bytes"),
    "TimelyParams": ("capacity", "num_flows", "ewma_alpha", "delta",
                     "beta", "t_low", "t_high", "min_rtt", "prop_delay",
                     "segment", "mtu_bytes"),
    "PatchedTimelyParams": ("q_ref", "beta_band",
                            "weight_slope_halfwidth"),
    "DCTCPParams": ("g", "step_threshold", "initial_window_packets",
                    "mtu_bytes"),
    "PIParams": ("q_ref", "k1", "k2", "p_min", "p_max"),
}


class TestNonFiniteRejected:
    """NaN and inf fail at construction, naming the field."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf],
                             ids=["nan", "inf"])
    @pytest.mark.parametrize("cls, field", [
        (cls, field) for cls, fields in _CHECKED_FIELDS.items()
        for field in fields])
    def test_field(self, cls, field, bad):
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            dataclasses.replace(_VALID[cls], **{field: bad})

    @pytest.mark.parametrize("build, field", [
        (lambda: DCQCNParams.paper_default(tau_star_us=math.nan),
         "tau_star"),
        (lambda: DCQCNParams.paper_default(capacity_gbps=math.nan),
         "capacity"),
        (lambda: DCQCNParams.paper_default(capacity_gbps=math.inf),
         "capacity"),
        (lambda: TimelyParams.paper_default(capacity_gbps=math.nan),
         "capacity"),
        (lambda: TimelyParams.paper_default(prop_delay_us=math.inf),
         "prop_delay"),
        (lambda: PatchedTimelyParams.paper_default(
            capacity_gbps=math.nan), "capacity"),
        (lambda: PIParams.for_dcqcn(math.nan), "q_ref"),
    ], ids=["dcqcn-tau_star-nan", "dcqcn-capacity-nan",
            "dcqcn-capacity-inf", "timely-capacity-nan",
            "timely-prop_delay-inf", "patched-capacity-nan",
            "pi-q_ref-nan"])
    def test_factory(self, build, field):
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            build()


class TestIntegerFlowCount:
    """``num_flows`` sizes per-flow arrays: only a positive integer."""

    @pytest.mark.parametrize("cls", [DCQCNParams, TimelyParams])
    @pytest.mark.parametrize("bad", [2.5, 2.0, True, "2", 0, -1])
    def test_rejects_non_integer(self, cls, bad):
        with pytest.raises(ValueError, match=r"\bnum_flows\b"):
            cls.paper_default(num_flows=bad)

    @pytest.mark.parametrize("cls", [DCQCNParams, TimelyParams])
    def test_accepts_numpy_integers(self, cls):
        assert cls.paper_default(num_flows=np.int64(3)).num_flows == 3
        swept = cls.paper_default().replace(num_flows=np.int32(4))
        assert swept.fair_share == pytest.approx(swept.capacity / 4)


class TestMTURejected:
    """A non-positive MTU is named, not a ZeroDivisionError in units."""

    @pytest.mark.parametrize("build", [
        REDParams.paper_default, DCQCNParams.paper_default,
        TimelyParams.paper_default, PatchedTimelyParams.paper_default,
        lambda mtu_bytes: PIParams.for_dcqcn(100.0, mtu_bytes=mtu_bytes),
        lambda mtu_bytes: PIParams.for_timely(100.0, mtu_bytes=mtu_bytes),
    ], ids=["red", "dcqcn", "timely", "patched", "pi-dcqcn", "pi-timely"])
    @pytest.mark.parametrize("mtu", [0, -1000])
    def test_factory(self, build, mtu):
        with pytest.raises(ValueError, match=r"\bmtu_bytes\b"):
            build(mtu_bytes=mtu)

    @pytest.mark.parametrize("cls", ["DCQCNParams", "TimelyParams",
                                     "DCTCPParams"])
    def test_field(self, cls):
        with pytest.raises(ValueError, match=r"\bmtu_bytes\b"):
            dataclasses.replace(_VALID[cls], mtu_bytes=0)
