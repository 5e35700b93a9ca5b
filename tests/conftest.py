"""Shared fixtures for the test suite."""

from __future__ import annotations

import json

import pytest

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
