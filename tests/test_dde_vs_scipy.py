"""The DDE integrator against scipy on delay-free systems.

With zero delay a DDE is an ODE, so scipy's `solve_ivp` provides an
independent reference.  Hypothesis drives random stable linear systems
and random smooth nonlinear ones through both integrators.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from repro.core.fluid import dde
from repro.core.fluid.base import FluidModel


class LinearSystem(FluidModel):
    """dx/dt = A x, no delays."""

    def __init__(self, matrix, x0):
        self.matrix = np.asarray(matrix, dtype=float)
        self.x0 = np.asarray(x0, dtype=float)

    def initial_state(self):
        return self.x0.copy()

    def derivatives(self, t, state, history):
        return (self.matrix @ np.array(state)).tolist()

    def state_labels(self):
        return [f"x{i}" for i in range(self.x0.size)]


class DrivenOscillator(FluidModel):
    """x'' + 2 zeta w x' + w^2 x = sin(t), as a first-order pair."""

    def __init__(self, omega, zeta):
        self.omega = omega
        self.zeta = zeta

    def initial_state(self):
        return np.array([1.0, 0.0])

    def derivatives(self, t, state, history):
        x, v = state
        return [v, float(np.sin(t)) - 2 * self.zeta * self.omega * v
                - self.omega ** 2 * x]

    def state_labels(self):
        return ["x", "v"]


stable_matrices = st.integers(min_value=0, max_value=10_000).map(
    lambda seed: _random_stable_matrix(seed))


def _random_stable_matrix(seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(3, 3))
    # Shift the spectrum left of the imaginary axis.
    shift = max(np.real(np.linalg.eigvals(raw)).max(), 0.0) + 0.5
    return raw - shift * np.eye(3)


class TestAgainstScipy:
    @given(stable_matrices,
           st.lists(st.floats(min_value=-5, max_value=5),
                    min_size=3, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_linear_systems_match(self, matrix, x0):
        model = LinearSystem(matrix, x0)
        ours = dde.integrate(model, t_end=2.0, dt=1e-3, method="rk4")
        reference = solve_ivp(lambda t, y: matrix @ y, (0.0, 2.0),
                              np.asarray(x0, dtype=float),
                              rtol=1e-10, atol=1e-12)
        scale = max(np.max(np.abs(x0)), 1.0)
        final_ours = ours.states[-1]
        final_ref = reference.y[:, -1]
        assert final_ours == pytest.approx(final_ref,
                                           abs=1e-5 * scale)

    @given(st.floats(min_value=0.5, max_value=5.0),
           st.floats(min_value=0.1, max_value=1.0))
    @settings(max_examples=20, deadline=None)
    def test_driven_oscillator_matches(self, omega, zeta):
        model = DrivenOscillator(omega, zeta)
        ours = dde.integrate(model, t_end=3.0, dt=1e-3, method="rk4")

        def rhs(t, y):
            x, v = y
            return [v, np.sin(t) - 2 * zeta * omega * v
                    - omega ** 2 * x]

        reference = solve_ivp(rhs, (0.0, 3.0), [1.0, 0.0],
                              rtol=1e-10, atol=1e-12)
        assert ours.final("x") == pytest.approx(reference.y[0, -1],
                                                abs=1e-5)

    def test_matrix_exponential_exact_case(self):
        """Analytic closed form: the 2x2 rotation-decay block."""
        a = np.array([[-1.0, -2.0], [2.0, -1.0]])
        model = LinearSystem(a, [1.0, 0.0])
        trace = dde.integrate(model, t_end=1.0, dt=5e-4, method="rk4")
        expected = np.exp(-1.0) * np.array([np.cos(2.0), np.sin(2.0)])
        assert trace.states[-1] == pytest.approx(expected, abs=1e-7)
