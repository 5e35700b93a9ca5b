"""Noise-injected TIMELY: the de-correlation conjecture machinery."""

import numpy as np
import pytest

from repro.core.fluid.history import UniformHistory
from repro.core.fluid.timely import TimelyFluidModel
from repro.core.params import TimelyParams
from repro.experiments import ext_noise_decorrelation


def make_model(amplitude=16.0, **kw):
    params = TimelyParams.paper_default(num_flows=2)
    return TimelyFluidModel(params, noise_amplitude=amplitude, noise_seed=1,
                            **kw)


class TestNoiseProcess:
    def test_zero_mean_and_bounded(self):
        model = make_model(amplitude=10.0)
        samples = np.array([model.measurement_noise(t * 31e-6)
                            for t in range(2000)])
        assert np.all(np.abs(samples) <= 10.0)
        assert abs(samples.mean()) < 1.0

    def test_flows_get_independent_streams(self):
        model = make_model(amplitude=10.0)
        samples = np.array([model.measurement_noise(t * 31e-6)
                            for t in range(500)])
        correlation = np.corrcoef(samples[:, 0], samples[:, 1])[0, 1]
        assert abs(correlation) < 0.2

    def test_zero_amplitude_matches_plain_model(self):
        params = TimelyParams.paper_default(num_flows=2)
        noisy = TimelyFluidModel(params, noise_amplitude=0.0, noise_seed=1)
        plain = TimelyFluidModel(params)
        state = plain.initial_state()
        state[plain.queue_index] = 100.0
        history = UniformHistory(0.0, 1e-6, state)
        values = state.tolist()
        assert noisy.derivatives(0.0, values, history) == \
            pytest.approx(plain.derivatives(0.0, values, history))

    def test_noise_only_touches_gradients(self):
        model = make_model(amplitude=50.0)
        params = model.params
        plain = TimelyFluidModel(params)
        state = plain.initial_state()
        state[plain.queue_index] = 200.0
        history = UniformHistory(0.0, 1e-6, state)
        noisy_deriv = model.derivatives(0.0, state.tolist(), history)
        plain_deriv = plain.derivatives(0.0, state.tolist(), history)
        assert noisy_deriv[model.queue_index] == \
            plain_deriv[plain.queue_index]
        assert noisy_deriv[model.rate_slice()] == pytest.approx(
            plain_deriv[plain.rate_slice()])

    def test_validation(self):
        with pytest.raises(ValueError):
            make_model(amplitude=-1.0)
        with pytest.raises(ValueError, match="noise_interval"):
            make_model(noise_interval=0.0)


class TestDecorrelation:
    def test_noise_shrinks_the_frozen_asymmetry(self):
        """The conjecture, quantified: 16-packet noise pulls the 7/3
        split several times closer to fair than the noiseless run."""
        rows = ext_noise_decorrelation.run(
            noise_amplitudes=(0.0, 16.0), duration=0.12)
        noiseless, noisy = rows
        assert noiseless.max_min > 2.5      # Theorem 4's frozen split
        assert noisy.max_min < 1.8
        assert noisy.jain_index > noiseless.jain_index

    def test_report_renders(self):
        rows = ext_noise_decorrelation.run(noise_amplitudes=(0.0,),
                                           duration=0.03)
        out = ext_noise_decorrelation.report(rows)
        assert "noise" in out
