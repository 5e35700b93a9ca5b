"""Common interface for the fluid models and their integration traces.

Every fluid model in this package (DCQCN, TIMELY and DCTCP, each with
its variants as constructor data) implements :class:`FluidModel`: it
owns a parameter set, defines an initial state vector and the bounds of
its physical domain, and evaluates the delayed right-hand side on a
list of Python floats given a
:class:`~repro.core.fluid.history.UniformHistory` of past states.  The
integrator in :mod:`repro.core.fluid.dde` drives any such model and
returns a :class:`FluidTrace`.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.fluid.history import UniformHistory


class FluidModel:
    """Delay-ODE system ``dy/dt = f(t, y, history)``.

    Subclasses must implement :meth:`initial_state`,
    :meth:`derivatives`, and :meth:`state_labels`.  :meth:`bounds` may
    be overridden to declare physical constraints (non-negative queues,
    rates within the line rate); the integrator applies them to every
    stage and every accepted step.  The default is unbounded.
    """

    def initial_state(self) -> np.ndarray:
        """State vector at t=0 (also the constant pre-history)."""
        raise NotImplementedError

    def derivatives(self, t: float, state: List[float],
                    history: UniformHistory) -> List[float]:
        """Evaluate the right-hand side at time ``t``.

        ``state`` is a list of Python floats in :meth:`state_labels`
        order, and so is the returned derivative: at the paper's sizes
        (a handful to a few dozen components) numpy's per-call cost
        would dominate the arithmetic.  ``history`` resolves delayed
        terms such as ``p(t - tau*)``; implementations must not mutate
        ``state``.
        """
        raise NotImplementedError

    def state_labels(self) -> List[str]:
        """Human-readable name for each state component, in order."""
        raise NotImplementedError

    def bounds(self) -> Tuple[List[float], List[float]]:
        """Per-component ``(lower, upper)`` limits of the physical domain.

        The integrator maps each component ``x`` to ``lower`` when
        ``lower > x`` and then to ``upper`` when ``upper < x``, which
        passes NaN through and returns the same zero as
        ``np.minimum(upper, np.maximum(lower, x))``.  ``-inf``/``inf``
        leave a side unbounded, as the default does for every component.
        """
        size = len(self.state_labels())
        return [-math.inf] * size, [math.inf] * size

    def reduced(self, initial: np.ndarray
                ) -> "Optional[Tuple[FluidModel, np.ndarray, np.ndarray]]":
        """An exact smaller system that integrates to the same states.

        Returns ``(core, core_initial, columns)`` when, started from
        ``initial``, this model's trajectory is ``core``'s trajectory
        from ``core_initial`` with its columns repeated as
        ``states[:, columns]``, bit for bit; the integrator then steps
        the core instead.  The default, None, means no reduction.
        """
        return None


#: ``np.sum`` without its Python wrapper; the same pairwise summation.
_add_reduce = np.add.reduce


def flow_sum(values: Sequence[float]) -> float:
    """The sum of per-flow values, rounded as ``np.add.reduce`` rounds it.

    The models' per-flow sums (Eq. 4's and Eq. 20's rates, DCTCP's
    windows) keep numpy's pairwise order (docs/PERFORMANCE.md, "Fluid
    layer", rule 2).  With one or two terms that order is one
    addition: numpy adds the first term to the sum of the rest, which
    starts from ``0.0``, so those skip numpy's per-call cost.
    """
    size = len(values)
    if size == 2:
        return values[0] + (0.0 + values[1])
    if size == 1:
        return values[0]
    return float(_add_reduce(values))


def require_finite(name: str, value) -> None:
    """Raise a ``ValueError`` naming ``name`` unless ``value`` is finite.

    The models' range checks let NaN through (it fails every
    comparison), and a NaN or infinite input would only surface later,
    as a divergence some steps into an integration.
    """
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite, got {value!r}")


def per_flow(name: str, values: Sequence[float], size: int) -> np.ndarray:
    """``values`` as a finite float array of shape ``(size,)``, or a
    ``ValueError`` naming ``name``."""
    array = np.asarray(values, dtype=float)
    if array.shape != (size,):
        raise ValueError(
            f"{name} must have shape ({size},), got {array.shape}")
    require_finite(name, array)
    return array


def require_at_least(name: str, value: float, low: float,
                     strict: bool = False) -> None:
    """Like :func:`require_finite`, and ``value`` must be ``>= low``
    (``> low`` when ``strict``)."""
    require_finite(name, value)
    if value < low or (strict and value == low):
        relation = ">" if strict else ">="
        raise ValueError(f"{name} must be {relation} {low}, got {value!r}")


class FluidTrace:
    """Time series produced by integrating a :class:`FluidModel`.

    Attributes
    ----------
    times:
        1-D array of sample times (seconds).
    states:
        2-D array, one row per sample, one column per state component.
    labels:
        Column names matching :meth:`FluidModel.state_labels`.
    """

    def __init__(self, times: np.ndarray, states: np.ndarray,
                 labels: Sequence[str]):
        times = np.asarray(times, dtype=float)
        states = np.asarray(states, dtype=float)
        if states.shape[0] != times.shape[0]:
            raise ValueError(
                f"times ({times.shape[0]}) and states ({states.shape[0]}) "
                "row counts differ")
        if states.shape[1] != len(labels):
            raise ValueError(
                f"states has {states.shape[1]} columns but "
                f"{len(labels)} labels were given")
        self.times = times
        self.states = states
        self.labels = list(labels)
        self._index = {label: i for i, label in enumerate(self.labels)}
        if len(self._index) != len(self.labels):
            raise ValueError("state labels must be unique")

    def __len__(self) -> int:
        return self.times.shape[0]

    def column(self, label: str) -> np.ndarray:
        """The full time series of one state component."""
        try:
            idx = self._index[label]
        except KeyError:
            raise KeyError(
                f"unknown state label {label!r}; have {self.labels}")
        return self.states[:, idx]

    def final(self, label: str) -> float:
        """The last recorded value of one component."""
        return float(self.column(label)[-1])

    def tail(self, label: str, window: float) -> np.ndarray:
        """Samples of ``label`` within the final ``window`` seconds."""
        cutoff = self.times[-1] - window
        mask = self.times >= cutoff
        return self.column(label)[mask]

    def tail_mean(self, label: str, window: float) -> float:
        """Mean of a component over the final ``window`` seconds."""
        values = self.tail(label, window)
        return float(np.mean(values))

    def tail_std(self, label: str, window: float) -> float:
        """Standard deviation over the final ``window`` seconds.

        Used by the stability experiments: an unstable (limit-cycling)
        system keeps a large tail standard deviation, a stable one
        decays toward zero.
        """
        values = self.tail(label, window)
        return float(np.std(values))

    def subsample(self, stride: int) -> "FluidTrace":
        """A decimated copy keeping every ``stride``-th sample."""
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        return FluidTrace(self.times[::stride], self.states[::stride],
                          self.labels)

    def save(self, path) -> None:
        """Persist the trace as a compressed ``.npz`` archive.

        Long integrations (the 0.5 s PI runs take minutes) are worth
        keeping; reload with :meth:`load`.
        """
        np.savez_compressed(path, times=self.times, states=self.states,
                            labels=np.array(self.labels, dtype=object))

    @classmethod
    def load(cls, path) -> "FluidTrace":
        """Reload a trace written by :meth:`save`."""
        with np.load(path, allow_pickle=True) as archive:
            return cls(archive["times"], archive["states"],
                       [str(label) for label in archive["labels"]])
