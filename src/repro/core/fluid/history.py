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

Storage is a single preallocated 2-D array of rows.  The integrator
knows its step count up front and passes ``capacity`` so the buffer is
sized exactly once; an unsized history still grows geometrically.  The
one lookup, :meth:`UniformHistory.component`, reads one component of
the buffer as a Python float: every right-hand-side evaluation makes
one lookup per delayed term and distinct flow (for DCQCN the delayed
marking input plus one ``R_C`` per flow; for TIMELY ``q(t - tau')``
plus one older queue per flow; two of each through the exchangeable
cores), up to four evaluations per RK4 step.
"""

from __future__ import annotations

from typing import Optional, Sequence

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

    __slots__ = ("_t0", "_dt", "_dim", "_capacity", "_data", "_rows",
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
        # Indexing a memoryview of the buffer yields Python floats,
        # more cheaply than ``ndarray.item``.
        self._rows = memoryview(self._data)
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

    def append(self, state: "Sequence[float]") -> None:
        """Record the state (a list of floats or a 1-D array) at the
        next grid point."""
        count = self._count
        if count == self._capacity:
            # Grow geometrically; only reached when the caller gave no
            # (or too small a) capacity hint.
            self._capacity *= 2
            grown = np.empty((self._capacity, self._dim), dtype=float)
            grown[:count] = self._data[:count]
            self._data = grown
            self._rows = memoryview(grown)
        self._data[count] = state
        self._count = count + 1

    def component(self, t: float, index: int) -> float:
        """Scalar lookup of one state component at time ``t``.

        Constant before ``t0`` and clamped at the newest sample, which
        lets Runge-Kutta stages evaluate delayed terms that land (by at
        most one step) past the recorded history; with delays >= dt
        this clamp is exact to first order.  Values between grid points
        are linearly interpolated.  The buffer is read as Python
        floats, whose arithmetic is the same IEEE double arithmetic
        without numpy's per-scalar overhead.
        """
        rows = self._rows
        offset = (t - self._t0) / self._dt
        if offset <= 0.0:
            return rows[0, index]
        last = self._count - 1
        if offset >= last:
            return rows[last, index]
        lo = int(offset)
        frac = offset - lo
        if frac == 0.0:
            return rows[lo, index]
        return (1.0 - frac) * rows[lo, index] + frac * rows[lo + 1, index]

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
