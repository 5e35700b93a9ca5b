"""Dense state history for delay-differential equations.

The fluid models of the paper are *delay* differential equations: the
DCQCN right-hand side reads marking probability ``p(t - tau*)`` and rate
``R_C(t - tau*)`` (Fig. 1), and TIMELY reads queue lengths at
``t - tau'`` and ``t - tau' - tau*`` where ``tau'`` itself depends on
the current queue (Eq. 24).  The integrator therefore records every
accepted step, and models look up past state through a
:class:`UniformHistory`.

The history exploits the integrator's uniform step size: lookup is an
O(1) index computation plus linear interpolation, instead of a binary
search.  Queries earlier than the start time return the initial state
(constant pre-history), which matches the paper's simulations where
flows start with fixed initial rates and an empty queue.

Storage is a single preallocated 2-D ring of rows.  The integrator
knows its step count up front and passes ``capacity`` so the buffer is
sized exactly once; an unsized history still grows geometrically.  The
lookup paths index the buffer directly: every right-hand-side
evaluation makes one lookup per delayed term (two for DCQCN; for
TIMELY one for ``q(t - tau')`` plus one per distinct flow, so N+1 for
N flows and two through the exchangeable core), up to four
evaluations per RK4 step.  Outside
the models' right-hand sides they are the largest cost of a fluid run,
about a tenth of it (docs/PERFORMANCE.md, "Fluid layer").
"""

from __future__ import annotations

from typing import Optional

import numpy as np

#: Default initial buffer size (rows) when no capacity hint is given.
_DEFAULT_CAPACITY = 1024


class UniformHistory:
    """Record of state vectors on a uniform time grid, linearly interpolated.

    Parameters
    ----------
    t0:
        Time of the first sample.
    dt:
        Grid spacing; every appended sample is assumed to be ``dt``
        after the previous one.
    initial_state:
        State vector at ``t0``; also used as the constant pre-history
        for queries at ``t < t0``.
    capacity:
        Optional total row count to preallocate (including the initial
        sample).  Fixed-step integrators know this exactly
        (``n_steps + 1``); sizing the buffer once removes every
        grow-and-copy from the stepping loop.
    """

    __slots__ = ("_t0", "_dt", "_dim", "_capacity", "_data",
                 "_count")

    def __init__(self, t0: float, dt: float, initial_state: np.ndarray,
                 capacity: Optional[int] = None):
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self._t0 = float(t0)
        self._dt = float(dt)
        state = np.asarray(initial_state, dtype=float)
        if state.ndim != 1:
            raise ValueError("initial_state must be a 1-D vector")
        self._dim = state.shape[0]
        if capacity is None:
            capacity = _DEFAULT_CAPACITY
        elif capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = int(capacity)
        self._data = np.empty((self._capacity, self._dim), dtype=float)
        self._data[0] = state
        self._count = 1

    @property
    def t0(self) -> float:
        """Time of the first recorded sample."""
        return self._t0

    @property
    def dt(self) -> float:
        """Uniform spacing between recorded samples."""
        return self._dt

    @property
    def dim(self) -> int:
        """Dimension of the state vector."""
        return self._dim

    @property
    def latest_time(self) -> float:
        """Time of the most recently appended sample."""
        return self._t0 + (self._count - 1) * self._dt

    def __len__(self) -> int:
        return self._count

    def append(self, state: np.ndarray) -> None:
        """Record the state at the next grid point."""
        count = self._count
        if count == self._capacity:
            # Grow geometrically; only reached when the caller gave no
            # (or too small a) capacity hint.
            self._capacity *= 2
            grown = np.empty((self._capacity, self._dim), dtype=float)
            grown[:count] = self._data[:count]
            self._data = grown
        self._data[count] = state
        self._count = count + 1

    def __call__(self, t: float) -> np.ndarray:
        """State at time ``t``; constant before ``t0``, clamped after the end.

        Values between grid points are linearly interpolated.  Clamping
        at the newest sample lets Runge-Kutta stages evaluate delayed
        terms that land (by at most one step) past the recorded history;
        with delays >= dt this clamp is exact to first order.
        """
        data = self._data
        offset = (t - self._t0) / self._dt
        if offset <= 0.0:
            return data[0].copy()
        last = self._count - 1
        if offset >= last:
            return data[last].copy()
        lo = int(offset)
        frac = offset - lo
        if frac == 0.0:
            return data[lo].copy()
        return (1.0 - frac) * data[lo] + frac * data[lo + 1]

    def interpolate(self, t: float, columns: slice) -> np.ndarray:
        """Interpolated lookup restricted to a column slice.

        The multi-flow models only need a few components of the
        delayed state (e.g. the ``R_C`` block); interpolating just
        those columns skips work proportional to the untouched part of
        the state vector.  Semantics match ``self(t)[columns]``
        exactly, including the pre-history and end clamps.
        """
        data = self._data
        offset = (t - self._t0) / self._dt
        if offset <= 0.0:
            return data[0, columns].copy()
        last = self._count - 1
        if offset >= last:
            return data[last, columns].copy()
        lo = int(offset)
        frac = offset - lo
        if frac == 0.0:
            return data[lo, columns].copy()
        return ((1.0 - frac) * data[lo, columns]
                + frac * data[lo + 1, columns])

    def component(self, t: float, index: int) -> float:
        """Scalar lookup of one state component at time ``t``.

        Cheaper than ``self(t)[index]`` because it avoids building the
        full interpolated vector; the fluid models call this in their
        inner loops for delayed queue values.  ``item`` hands back
        Python floats, whose arithmetic is the same IEEE double
        arithmetic without numpy's per-scalar overhead.
        """
        item = self._data.item
        offset = (t - self._t0) / self._dt
        if offset <= 0.0:
            return item(0, index)
        last = self._count - 1
        if offset >= last:
            return item(last, index)
        lo = int(offset)
        frac = offset - lo
        if frac == 0.0:
            return item(lo, index)
        return (1.0 - frac) * item(lo, index) + frac * item(lo + 1, index)

    def as_arrays(self) -> "tuple[np.ndarray, np.ndarray]":
        """Return ``(times, states)`` copies of the full recorded history."""
        times = self._t0 + self._dt * np.arange(self._count)
        return times, self._data[:self._count].copy()

    def strided_view(self, stride: int) -> "tuple[np.ndarray, np.ndarray]":
        """``(times, states)`` of every ``stride``-th sample, as copies.

        Lets the integrator hand a thinned trace to the caller without
        having re-recorded anything during stepping: the history *is*
        the trace.  Indexing with an index array already returns a new
        array, so the states need no further copy.
        """
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        indices = np.arange(0, self._count, stride)
        times = self._t0 + self._dt * indices
        return times, self._data[indices]
