"""DCTCP fluid model -- the window-based system of [3].

The paper leans on Alizadeh et al.'s DCTCP analysis ("Analysis of
DCTCP: stability, convergence and fairness", [3]) in two places: the
fluid-modelling methodology itself, and footnote 9's remark that
"some window-based protocols have limit cycles" -- which is DCTCP:
with step marking at threshold ``K`` the queue orbits ``K`` in a
sawtooth rather than settling.  This module implements that classic
model so the claim is checkable next to the rate-based systems:

    dW_i/dt = 1/R(t) - W_i alpha_i / (2 R(t)) * p(t - R*)
    dalpha_i/dt = g / R(t) * (p(t - R*) - alpha_i)
    dq/dt = sum_i W_i / R(t) - C
    R(t) = d + q(t)/C                  (RTT: propagation + queuing)
    p(q) = 1 if q > K else 0           (step marking)

Windows are in packets, ``C`` in packets/second.  Unlike DCQCN (unique
stable fixed point) and patched TIMELY (unique fixed point, stability
conditional on N), this system's marking discontinuity makes every
trajectory a limit cycle around ``q = K`` -- the third behaviour class
in the paper's taxonomy.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.fluid.base import FluidModel, require_finite
from repro.core.fluid.history import UniformHistory

#: Windows below one packet stall the model; clamp like the protocols do.
MIN_WINDOW = 1.0


class DCTCPFluidModel(FluidModel):
    """The [3] delay-ODE system for ``N`` window-based flows.

    State layout: ``[q, alpha_1..alpha_N, w_1..w_N]``.

    Parameters
    ----------
    capacity:
        Bottleneck rate, packets/s.
    num_flows:
        N.
    marking_threshold:
        Step threshold K, packets.
    prop_delay:
        Base RTT d (two-way propagation), seconds.
    g:
        DCTCP's estimation gain (1/16).
    initial_windows:
        Per-flow starting windows, packets (defaults to the
        bandwidth-delay product share).
    """

    def __init__(self, capacity: float, num_flows: int,
                 marking_threshold: float,
                 prop_delay: float,
                 g: float = 1.0 / 16.0,
                 initial_windows: Optional[Sequence[float]] = None,
                 initial_queue: float = 0.0):
        for name, value in (("capacity", capacity),
                            ("marking_threshold", marking_threshold),
                            ("prop_delay", prop_delay),
                            ("initial_queue", initial_queue)):
            require_finite(name, value)
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if num_flows < 1:
            raise ValueError(f"need at least one flow, got {num_flows}")
        if marking_threshold <= 0:
            raise ValueError(
                f"marking threshold must be positive, got "
                f"{marking_threshold}")
        if prop_delay <= 0:
            raise ValueError(
                f"prop_delay must be positive, got {prop_delay}")
        if not 0.0 < g <= 1.0:
            raise ValueError(f"g must be in (0, 1], got {g}")
        self.capacity = capacity
        self.n = num_flows
        self.threshold = marking_threshold
        self.prop_delay = prop_delay
        self.g = g
        if initial_windows is None:
            bdp_share = capacity * prop_delay / num_flows
            self._initial_windows = np.full(num_flows,
                                            max(bdp_share, MIN_WINDOW))
        else:
            windows = np.asarray(initial_windows, dtype=float)
            if windows.shape != (num_flows,):
                raise ValueError(
                    f"initial_windows must have shape ({num_flows},), "
                    f"got {windows.shape}")
            require_finite("initial_windows", windows)
            if np.any(windows < MIN_WINDOW):
                raise ValueError(
                    f"windows must be >= {MIN_WINDOW} packet")
            self._initial_windows = windows
        if initial_queue < 0:
            raise ValueError(
                f"initial_queue must be >= 0, got {initial_queue}")
        self._initial_queue = float(initial_queue)
        # Per-column bounds for clamp(): [q, alpha, w] -> [0, inf),
        # [0, 1], [MIN_WINDOW, inf).
        self._lower = np.concatenate(
            [[0.0], np.zeros(num_flows), np.full(num_flows, MIN_WINDOW)])
        self._upper = np.concatenate(
            [[np.inf], np.ones(num_flows), np.full(num_flows, np.inf)])

    # -- state layout ---------------------------------------------------------

    @property
    def queue_index(self) -> int:
        return 0

    def alpha_slice(self) -> slice:
        return slice(1, 1 + self.n)

    def window_slice(self) -> slice:
        return slice(1 + self.n, 1 + 2 * self.n)

    def initial_state(self) -> np.ndarray:
        state = np.empty(1 + 2 * self.n)
        state[self.queue_index] = self._initial_queue
        state[self.alpha_slice()] = 0.0
        state[self.window_slice()] = self._initial_windows
        return state

    def state_labels(self) -> List[str]:
        labels = ["q"]
        labels += [f"alpha[{i}]" for i in range(self.n)]
        labels += [f"w[{i}]" for i in range(self.n)]
        return labels

    # -- dynamics -------------------------------------------------------------

    def rtt(self, queue: float) -> float:
        """R(t) = d + q/C."""
        return self.prop_delay + queue / self.capacity

    def marking(self, queue: float) -> float:
        """Step marking: everything above K is marked."""
        return 1.0 if queue > self.threshold else 0.0

    def derivatives(self, t: float, state: np.ndarray,
                    history: UniformHistory) -> np.ndarray:
        queue = state[self.queue_index]
        alphas = state[self.alpha_slice()]
        windows = state[self.window_slice()]

        rtt_now = self.rtt(queue)
        delayed_queue = history.component(t - rtt_now, self.queue_index)
        p_delayed = self.marking(delayed_queue)

        dq = float(np.sum(windows)) / rtt_now - self.capacity
        if queue <= 0.0 and dq < 0.0:
            dq = 0.0

        dalpha = self.g / rtt_now * (p_delayed - alphas)
        dw = (1.0 / rtt_now
              - windows * alphas / (2.0 * rtt_now) * p_delayed)

        out = np.empty_like(state)
        out[self.queue_index] = dq
        out[self.alpha_slice()] = dalpha
        out[self.window_slice()] = dw
        return out

    def clamp(self, state: np.ndarray) -> np.ndarray:
        # Bound first, as in DCQCNFluidModel.clamp.
        np.maximum(self._lower, state, out=state)
        np.minimum(self._upper, state, out=state)
        return state
