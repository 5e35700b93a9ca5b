"""Convergence-time experiment and DCQCN fluid start-time support."""

import numpy as np
import pytest

from repro.core.fluid import dde
from repro.core.fluid.dcqcn import DCQCNFluidModel
from repro.core.fluid.history import UniformHistory
from repro.experiments import ext_convergence_time


class TestDCQCNStartTimes:
    def test_inactive_flow_frozen(self, dcqcn_params):
        model = DCQCNFluidModel(dcqcn_params, start_times=[0.0, 1.0])
        state = model.initial_state()
        history = UniformHistory(0.0, 1e-6, state)
        deriv = np.array(model.derivatives(0.0, state.tolist(), history))
        # Flow 1 contributes nothing and does not evolve; the single
        # active line-rate flow exactly fills the link.
        assert deriv[model.queue_index] == pytest.approx(0.0)
        assert deriv[model.rc_slice()][1] == 0.0
        assert deriv[model.rt_slice()][1] == 0.0
        assert deriv[model.alpha_slice()][1] == 0.0

    def test_rejects_bad_start_times(self, dcqcn_params):
        with pytest.raises(ValueError):
            DCQCNFluidModel(dcqcn_params, start_times=[0.0])
        with pytest.raises(ValueError):
            DCQCNFluidModel(dcqcn_params, start_times=[-1.0, 0.0])

    def test_late_flow_claims_fair_share(self, dcqcn_params):
        join = 0.01
        model = DCQCNFluidModel(dcqcn_params, start_times=[0.0, join])
        trace = dde.integrate(model, 0.06, dt=2e-6, record_stride=20)
        fair = dcqcn_params.fair_share
        # Before the join the incumbent holds the whole link.
        before = np.searchsorted(trace.times, join * 0.9)
        assert trace.column("rc[0]")[before] == pytest.approx(
            dcqcn_params.capacity, rel=0.05)
        # After convergence both sit at C/2.
        assert trace.tail_mean("rc[0]", 0.01) == pytest.approx(
            fair, rel=0.1)
        assert trace.tail_mean("rc[1]", 0.01) == pytest.approx(
            fair, rel=0.1)


class TestExperiment:
    @pytest.fixture(scope="class")
    def rows(self):
        return ext_convergence_time.run(duration=0.25)

    def test_everyone_settles(self, rows):
        for row in rows:
            assert row.newcomer_settle_ms is not None, row.protocol
            assert row.incumbent_settle_ms is not None, row.protocol

    def test_dcqcn_settles_within_tens_of_ms(self, rows):
        dcqcn = next(r for r in rows if r.protocol == "dcqcn")
        assert dcqcn.newcomer_settle_ms < 80.0

    def test_timid_start_is_much_slower(self, rows):
        confident = next(r for r in rows if "C/2" in r.protocol)
        timid = next(r for r in rows if "C/20" in r.protocol)
        # The additive-only climb makes the timid newcomer several
        # times slower -- the delta-limited ramp the paper's Fig. 10(b)
        # recovery suffers from.
        assert timid.newcomer_settle_ms > \
            2 * confident.newcomer_settle_ms

    def test_report_renders(self, rows):
        out = ext_convergence_time.report(rows)
        assert "dcqcn" in out
        assert "newcomer settles" in out
