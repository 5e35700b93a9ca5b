"""Shared fixtures for the test suite."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.fluid.base import FluidModel
from repro.core.params import (DCQCNParams, PatchedTimelyParams,
                               TimelyParams)


@pytest.fixture
def dcqcn_params() -> DCQCNParams:
    """Default 40 Gbps, 2-flow DCQCN configuration."""
    return DCQCNParams.paper_default(capacity_gbps=40.0, num_flows=2)


@pytest.fixture
def dcqcn_ten_flows() -> DCQCNParams:
    """Default 40 Gbps, 10-flow DCQCN configuration."""
    return DCQCNParams.paper_default(capacity_gbps=40.0, num_flows=10)


@pytest.fixture
def timely_params() -> TimelyParams:
    """Default 10 Gbps, 2-flow TIMELY configuration."""
    return TimelyParams.paper_default(capacity_gbps=10.0, num_flows=2)


@pytest.fixture
def patched_params() -> PatchedTimelyParams:
    """Default 10 Gbps, 2-flow patched TIMELY configuration."""
    return PatchedTimelyParams.paper_default(capacity_gbps=10.0,
                                             num_flows=2)


@pytest.fixture
def write_log():
    """Writer of one-run telemetry dirs for ``repro compare``.

    ``write_log(directory, gauges)`` creates ``directory`` holding one
    run log of experiment ``demo`` whose final snapshot is ``gauges``
    and returns it.  Written by hand, the log carries no wall-clock
    metric, so two such dirs differ only in ``gauges``.
    """

    def write(directory, gauges, experiment="demo"):
        directory.mkdir(parents=True)
        snapshot = {name: {"type": "gauge", "value": value}
                    for name, value in gauges.items()}
        events = ({"type": "run_start", "experiment": experiment},
                  {"type": "metrics", "snapshot": snapshot},
                  {"type": "run_end"})
        (directory / f"{experiment}-1.jsonl").write_text(
            "".join(json.dumps(event) + "\n" for event in events))
        return directory

    return write


class _ReferenceRHS(FluidModel):
    """A fluid model driven by a test-side right-hand side and clamp.

    ``derivatives(model, t, state, history)`` and ``clamp(model,
    state)`` are plain numpy functions -- a direct transcription of the
    paper's equations -- evaluated on ``model``'s parameters, initial
    state and labels.  The integrator bounds states itself, so the
    clamp enters as the bounds it implies: its image of an all ``-inf``
    and an all ``+inf`` state.
    """

    def __init__(self, model, derivatives, clamp):
        self.model = model
        self._derivatives = derivatives
        size = len(model.state_labels())
        self._bounds = (clamp(model, np.full(size, -np.inf)).tolist(),
                        clamp(model, np.full(size, np.inf)).tolist())

    def initial_state(self):
        return self.model.initial_state()

    def state_labels(self):
        return self.model.state_labels()

    def derivatives(self, t, state, history):
        return self._derivatives(self.model, t, np.array(state),
                                 history).tolist()

    def bounds(self):
        return self._bounds


@pytest.fixture
def reference_rhs():
    """Wrapper that integrates a model through a reference RHS.

    ``reference_rhs(model, derivatives, clamp)`` returns a
    :class:`~repro.core.fluid.base.FluidModel` with ``model``'s state
    layout whose right-hand side and bounds are the given functions,
    so ``dde.integrate`` of it and of ``model`` can be compared.
    """
    return _ReferenceRHS


class _Replay(FluidModel):
    """Writes ``values`` into the state in one step of any method.

    A finite value starts as the initial state and every derivative is
    ``-0.0`` (``x + c * -0.0`` is ``x`` for every ``x``, signed zeros
    included); a non-finite one starts at 0 and its derivative is the
    value itself, which every method's combination keeps.
    """

    def __init__(self, bounds, values):
        self._bound_pair = bounds
        self._values = [float(v) for v in values]

    def initial_state(self):
        return np.array([v if np.isfinite(v) else 0.0
                         for v in self._values])

    def state_labels(self):
        return [f"x{i}" for i in range(len(self._values))]

    def derivatives(self, t, state, history):
        return [-0.0 if np.isfinite(v) else v for v in self._values]

    def bounds(self):
        return self._bound_pair


@pytest.fixture
def integrator_bounded():
    """``integrator_bounded(model, values, method)``: ``values`` as the
    integrator bounds them to ``model.bounds()`` after one step, read
    from the trace, or from the failure state when a value is not
    finite."""
    from repro.core.fluid import dde

    def bounded(model, values, method="heun"):
        replay = _Replay(model.bounds(), values)
        try:
            trace = dde.integrate(replay, 1.0, dt=1.0, method=method,
                                  max_retries=0, divergence_limit=None)
        except dde.IntegrationError as error:
            return error.failure.state
        return trace.states[1]

    return bounded
