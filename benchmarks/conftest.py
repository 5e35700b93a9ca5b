"""Benchmark harness configuration.

Every benchmark regenerates one paper figure: it runs the experiment
driver once, prints the table of numbers the figure plots, and
asserts the qualitative shape the paper reports.  Speed is measured
by ``e2ebench/``, not here.

Run with::

    pytest benchmarks/ -s
"""

import pytest


@pytest.fixture
def run_once():
    """Execute an experiment driver exactly once."""

    def runner(fn, **kwargs):
        return fn(**kwargs)

    return runner
