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
        assert history(0.5)[0] == pytest.approx(1.0)
        assert history(1.0)[0] == pytest.approx(2.0)

    def test_linear_interpolation_between_points(self):
        history = make_linear_history()
        assert history(0.55)[0] == pytest.approx(1.1)

    def test_constant_pre_history(self):
        history = make_linear_history(t0=1.0)
        assert history(0.0)[0] == pytest.approx(2.0)  # state at t0
        assert history(-5.0)[0] == pytest.approx(2.0)

    def test_clamps_beyond_latest(self):
        history = make_linear_history(steps=10)
        latest = history.latest_time
        assert history(latest + 1.0)[0] == pytest.approx(
            history(latest)[0])

    def test_component_matches_full_lookup(self):
        history = UniformHistory(0.0, 0.1, np.array([0.0, 10.0]))
        for k in range(1, 15):
            history.append(np.array([k * 0.1, 10.0 + k]))
        t = 0.73
        full = history(t)
        assert history.component(t, 0) == pytest.approx(full[0])
        assert history.component(t, 1) == pytest.approx(full[1])

    def test_returned_vector_is_a_copy(self):
        history = make_linear_history()
        vec = history(0.5)
        vec[0] = 999.0
        assert history(0.5)[0] == pytest.approx(1.0)


class TestGrowth:
    def test_capacity_doubling_preserves_data(self):
        history = UniformHistory(0.0, 1.0, np.array([0.0]))
        for k in range(1, 5000):
            history.append(np.array([float(k)]))
        assert len(history) == 5000
        assert history(1234.0)[0] == pytest.approx(1234.0)
        assert history(4999.0)[0] == pytest.approx(4999.0)

    def test_as_arrays_shapes(self):
        history = make_linear_history(steps=7)
        times, states = history.as_arrays()
        assert times.shape == (8,)
        assert states.shape == (8, 1)
        assert times[0] == pytest.approx(0.0)
        assert times[-1] == pytest.approx(0.7)

    @pytest.mark.parametrize("stride", [1, 3, 50])
    def test_strided_view_is_an_independent_thinning(self, stride):
        history = UniformHistory(0.0, 0.5, np.array([0.0, 1.0, 2.0]))
        for k in range(1, 40):
            history.append(np.array([k, k + 1.0, k * k]))
        times, states = history.strided_view(stride)
        all_times, all_states = history.as_arrays()
        assert np.array_equal(times, all_times[::stride])
        assert np.array_equal(states, all_states[::stride])
        # The states own their memory: writing them leaves the history.
        assert not np.shares_memory(states, history._data)
        states[0, 0] = 999.0
        assert history(0.0)[0] == 0.0

    def test_strided_view_rejects_zero_stride(self):
        with pytest.raises(ValueError):
            make_linear_history().strided_view(0)


class TestInterpolationProperties:
    @given(st.floats(min_value=-1.0, max_value=3.0))
    def test_linear_function_reproduced_exactly(self, t):
        history = make_linear_history(steps=20, slope=3.0)
        value = history(t)[0]
        clamped_t = min(max(t, 0.0), history.latest_time)
        assert value == pytest.approx(3.0 * clamped_t, abs=1e-9)

    @given(st.lists(st.floats(min_value=-10, max_value=10),
                    min_size=2, max_size=30),
           st.floats(min_value=0.0, max_value=1.0))
    def test_interpolation_within_sample_bounds(self, values, frac):
        history = UniformHistory(0.0, 1.0, np.array([values[0]]))
        for v in values[1:]:
            history.append(np.array([v]))
        t = frac * history.latest_time
        value = history(t)[0]
        assert min(values) - 1e-9 <= value <= max(values) + 1e-9
