"""Random feedback-delay jitter for the fluid models (Fig. 20).

Section 5.2 of the paper injects uniform random jitter into the
feedback delay of both models -- ``tau*`` for DCQCN and ``tau'`` for
TIMELY -- to show that ECN tolerates a noisy reverse path (the signal
is merely late) while delay-based feedback is corrupted by it (the
noise lands *inside* the measured RTT).

A :class:`JitterProcess` is a deterministic, seedable piecewise-constant
random signal: the delay offset is redrawn from ``Uniform[0, amplitude]``
every ``resample_interval`` seconds.  Piecewise constancy keeps the DDE
right-hand side well defined between integrator steps, and determinism
(values derived from the interval index, not from call order) makes
integrations reproducible regardless of how many times the stepper
evaluates the RHS.
"""

from __future__ import annotations

import numpy as np

from repro.core.fluid.base import require_at_least


class JitterProcess:
    """Deterministic piecewise-constant ``Uniform[0, amplitude]`` delay.

    Parameters
    ----------
    amplitude:
        Maximum extra delay, seconds (the paper uses 100 us).
    resample_interval:
        How often a fresh uniform sample takes effect, seconds.
    seed:
        Seed for the underlying generator.

    The process is callable: ``jitter(t)`` returns the extra feedback
    delay at time ``t``.  Negative times reuse the ``t = 0`` sample.
    """

    #: Number of samples drawn per batch when extending the table.
    _BATCH = 4096

    def __init__(self, amplitude: float, resample_interval: float = 10e-6,
                 seed: int = 0):
        require_at_least("amplitude", amplitude, 0.0)
        require_at_least("resample_interval", resample_interval, 0.0,
                         strict=True)
        self.amplitude = float(amplitude)
        self.resample_interval = float(resample_interval)
        self._rng = np.random.default_rng(seed)
        self._samples = self._rng.uniform(0.0, self.amplitude, self._BATCH) \
            if amplitude > 0 else np.zeros(self._BATCH)

    def _extend_to(self, index: int) -> None:
        while index >= self._samples.shape[0]:
            if self.amplitude > 0:
                fresh = self._rng.uniform(0.0, self.amplitude, self._BATCH)
            else:
                fresh = np.zeros(self._BATCH)
            self._samples = np.concatenate([self._samples, fresh])

    def __call__(self, t: float) -> float:
        index = max(int(t / self.resample_interval), 0)
        self._extend_to(index)
        return float(self._samples[index])


def no_jitter(t: float) -> float:
    """The trivial jitter process: zero extra delay at all times."""
    return 0.0
