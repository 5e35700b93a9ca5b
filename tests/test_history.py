"""UniformHistory: interpolation, pre-history, growth."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.fluid.history import UniformHistory


def make_linear_history(t0=0.0, dt=0.1, steps=20, slope=2.0):
    """History recording x(t) = slope * t componentwise."""
    history = UniformHistory(t0, dt, np.array([t0 * slope]))
    for k in range(1, steps + 1):
        history.append(np.array([(t0 + k * dt) * slope]))
    return history


class TestConstruction:
    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            UniformHistory(0.0, 0.0, np.array([1.0]))

    def test_rejects_matrix_state(self):
        with pytest.raises(ValueError):
            UniformHistory(0.0, 0.1, np.zeros((2, 2)))

    def test_initial_length(self):
        history = UniformHistory(0.0, 0.1, np.array([1.0, 2.0]))
        assert len(history) == 1
        assert history.dim == 2
        assert history.latest_time == pytest.approx(0.0)


class TestLookup:
    def test_exact_grid_points(self):
        history = make_linear_history()
        assert history.component(0.5, 0) == pytest.approx(1.0)
        assert history.component(1.0, 0) == pytest.approx(2.0)

    def test_linear_interpolation_between_points(self):
        history = make_linear_history()
        assert history.component(0.55, 0) == pytest.approx(1.1)

    def test_constant_pre_history(self):
        history = make_linear_history(t0=1.0)
        assert history.component(0.0, 0) == pytest.approx(2.0)  # at t0
        assert history.component(-5.0, 0) == pytest.approx(2.0)

    def test_clamps_beyond_latest(self):
        history = make_linear_history(steps=10)
        latest = history.latest_time
        assert history.component(latest + 1.0, 0) == pytest.approx(
            history.component(latest, 0))

    def test_component_matches_full_lookup(self):
        # Each component interpolates its own column of the record.
        history = UniformHistory(0.0, 0.1, np.array([0.0, 10.0]))
        for k in range(1, 15):
            history.append([k * 0.1, 10.0 + k])
        times, states = history.strided_view(1)
        t = 0.73
        for index in range(2):
            assert history.component(t, index) == pytest.approx(
                np.interp(t, times, states[:, index]))

    def test_component_is_a_python_float(self):
        history = make_linear_history()
        for t in (-1.0, 0.5, 0.55, 99.0):
            assert type(history.component(t, 0)) is float


class TestGrowth:
    def test_capacity_doubling_preserves_data(self):
        history = UniformHistory(0.0, 1.0, np.array([0.0]))
        for k in range(1, 5000):
            history.append([float(k)])
        assert len(history) == 5000
        assert history.component(1234.0, 0) == pytest.approx(1234.0)
        assert history.component(4999.0, 0) == pytest.approx(4999.0)
        times, states = history.strided_view(1)
        assert np.array_equal(states[:, 0], np.arange(5000.0))

    def test_strided_view_shapes(self):
        history = make_linear_history(steps=7)
        times, states = history.strided_view(1)
        assert times.shape == (8,)
        assert states.shape == (8, 1)
        assert times[0] == pytest.approx(0.0)
        assert times[-1] == pytest.approx(0.7)

    @pytest.mark.parametrize("stride", [1, 3, 50])
    def test_strided_view_is_an_independent_thinning(self, stride):
        rows = [[k, k + 1.0, k * k] for k in range(40)]
        history = UniformHistory(0.0, 0.5, np.array(rows[0], dtype=float))
        for row in rows[1:]:
            history.append(row)
        times, states = history.strided_view(stride)
        assert np.array_equal(times, 0.5 * np.arange(40)[::stride])
        assert np.array_equal(states, np.array(rows, dtype=float)[::stride])
        # The states own their memory: writing them leaves the history.
        assert not np.shares_memory(states, history._data)
        states[0, 0] = 999.0
        assert history.component(0.0, 0) == 0.0

    def test_strided_view_rejects_zero_stride(self):
        with pytest.raises(ValueError):
            make_linear_history().strided_view(0)


class TestInterpolationProperties:
    @given(st.floats(min_value=-1.0, max_value=3.0))
    def test_linear_function_reproduced_exactly(self, t):
        history = make_linear_history(steps=20, slope=3.0)
        value = history.component(t, 0)
        clamped_t = min(max(t, 0.0), history.latest_time)
        assert value == pytest.approx(3.0 * clamped_t, abs=1e-9)

    @given(st.lists(st.floats(min_value=-10, max_value=10),
                    min_size=2, max_size=30),
           st.floats(min_value=0.0, max_value=1.0))
    def test_interpolation_within_sample_bounds(self, values, frac):
        history = UniformHistory(0.0, 1.0, np.array([values[0]]))
        for v in values[1:]:
            history.append([v])
        t = frac * history.latest_time
        value = history.component(t, 0)
        assert min(values) - 1e-9 <= value <= max(values) + 1e-9
