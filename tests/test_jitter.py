"""JitterProcess: determinism, bounds, and growth."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fluid.jitter import JitterProcess, no_jitter


class TestNoJitter:
    def test_always_zero(self):
        for t in (-1.0, 0.0, 0.5, 100.0):
            assert no_jitter(t) == 0.0


class TestJitterProcess:
    def test_within_amplitude(self):
        jitter = JitterProcess(100e-6, seed=1)
        samples = [jitter(t * 10e-6) for t in range(1000)]
        assert min(samples) >= 0.0
        assert max(samples) <= 100e-6

    def test_piecewise_constant_within_interval(self):
        jitter = JitterProcess(100e-6, resample_interval=10e-6, seed=2)
        assert jitter(20e-6) == jitter(29.9e-6)

    def test_changes_across_intervals(self):
        jitter = JitterProcess(100e-6, resample_interval=10e-6, seed=2)
        values = {jitter(i * 10e-6 + 1e-6) for i in range(50)}
        assert len(values) > 10  # genuinely random per interval

    def test_deterministic_given_seed(self):
        a = JitterProcess(50e-6, seed=7)
        b = JitterProcess(50e-6, seed=7)
        times = np.linspace(0, 1e-3, 100)
        assert [a(t) for t in times] == [b(t) for t in times]

    def test_independent_of_call_order(self):
        """Values derive from the interval index, so evaluation order
        (which RK steppers scramble) cannot change the process."""
        forward = JitterProcess(50e-6, seed=3)
        backward = JitterProcess(50e-6, seed=3)
        times = [i * 10e-6 for i in range(200)]
        values_fwd = [forward(t) for t in times]
        values_bwd = [backward(t) for t in reversed(times)]
        assert values_fwd == list(reversed(values_bwd))

    def test_negative_times_use_first_sample(self):
        jitter = JitterProcess(50e-6, seed=4)
        assert jitter(-1.0) == jitter(0.0)

    def test_table_extends_arbitrarily_far(self):
        jitter = JitterProcess(50e-6, resample_interval=10e-6, seed=5)
        assert 0.0 <= jitter(10.0) <= 50e-6  # one million intervals in

    def test_zero_amplitude_is_zero(self):
        jitter = JitterProcess(0.0, seed=6)
        assert jitter(0.5) == 0.0
        assert jitter(5.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            JitterProcess(-1e-6)
        with pytest.raises(ValueError):
            JitterProcess(1e-6, resample_interval=0.0)

    @pytest.mark.parametrize("name, args, kwargs", [
        ("amplitude", (np.nan,), {}),
        ("amplitude", (np.inf,), {}),
        ("resample_interval", (1e-6,), dict(resample_interval=np.nan)),
        ("resample_interval", (1e-6,), dict(resample_interval=np.inf)),
    ], ids=["nan_amplitude", "inf_amplitude", "nan_interval",
            "inf_interval"])
    def test_rejects_non_finite(self, name, args, kwargs):
        with pytest.raises(ValueError, match=name):
            JitterProcess(*args, **kwargs)

    @given(st.floats(min_value=1e-7, max_value=1e-3),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=50)
    def test_bounds_property(self, amplitude, seed):
        jitter = JitterProcess(amplitude, seed=seed)
        for t in (0.0, 1e-4, 1e-2, 1.0):
            value = jitter(t)
            assert 0.0 <= value <= amplitude
