"""DCTCP fluid model: the footnote-9 limit cycle, checked."""

import numpy as np
import pytest

from repro import units
from repro.core.fluid import dde
from repro.core.fluid.dctcp import DCTCPFluidModel


def make_model(**kw):
    defaults = dict(capacity=units.gbps_to_pps(10.0),
                    num_flows=2,
                    marking_threshold=65.0,
                    prop_delay=units.us(40))
    defaults.update(kw)
    return DCTCPFluidModel(**defaults)


class TestConstruction:
    def test_state_layout(self):
        model = make_model()
        assert model.state_labels() == ["q", "alpha[0]", "alpha[1]",
                                        "w[0]", "w[1]"]

    def test_default_windows_bdp_share(self):
        model = make_model()
        state = model.initial_state()
        bdp = model.capacity * model.prop_delay
        assert np.all(state[model.window_slice()] ==
                      pytest.approx(bdp / 2))

    def test_validation(self):
        with pytest.raises(ValueError):
            make_model(capacity=0.0)
        with pytest.raises(ValueError):
            make_model(num_flows=0)
        with pytest.raises(ValueError):
            make_model(marking_threshold=0.0)
        with pytest.raises(ValueError):
            make_model(prop_delay=0.0)
        with pytest.raises(ValueError):
            make_model(g=0.0)
        with pytest.raises(ValueError):
            make_model(initial_windows=[1.0])

    @pytest.mark.parametrize("name", [
        "capacity", "marking_threshold", "prop_delay", "initial_queue"])
    def test_rejects_nan(self, name):
        with pytest.raises(ValueError, match=name):
            make_model(**{name: np.nan})

    def test_rejects_infinite_window(self):
        with pytest.raises(ValueError, match="initial_windows"):
            make_model(initial_windows=[np.inf, 10.0])


class TestMechanics:
    def test_step_marking(self):
        model = make_model(marking_threshold=65.0)
        assert model.marking(64.9) == 0.0
        assert model.marking(65.1) == 1.0

    def test_rtt_includes_queuing(self):
        model = make_model()
        base = model.rtt(0.0)
        assert model.rtt(100.0) == pytest.approx(
            base + 100.0 / model.capacity)

    def test_windows_grow_without_marks(self):
        model = make_model()
        from repro.core.fluid.history import UniformHistory
        state = model.initial_state()
        history = UniformHistory(0.0, 1e-6, state)
        deriv = model.derivatives(0.0, state, history)
        assert np.all(deriv[model.window_slice()] > 0)


class TestLimitCycle:
    @pytest.fixture(scope="class")
    def trace(self):
        model = make_model()
        return model, dde.integrate(model, 0.1, dt=1e-6,
                                    record_stride=20)

    def test_queue_orbits_the_threshold(self, trace):
        model, result = trace
        tail_mean = result.tail_mean("q", 0.03)
        assert tail_mean == pytest.approx(model.threshold, rel=0.5)

    def test_sustained_oscillation(self, trace):
        """Footnote 9: window-based DCTCP limit-cycles, it does not
        settle -- unlike DCQCN's fixed point."""
        model, result = trace
        tail = result.tail("q", 0.03)
        assert tail.max() > model.threshold
        assert tail.min() < model.threshold
        assert result.tail_std("q", 0.03) > 1.0

    def test_windows_stay_fair(self, trace):
        model, result = trace
        w0 = result.tail_mean("w[0]", 0.03)
        w1 = result.tail_mean("w[1]", 0.03)
        assert w0 == pytest.approx(w1, rel=0.05)

    def test_throughput_matches_capacity(self, trace):
        model, result = trace
        # Mean aggregate W/RTT over the tail approximates C.
        window = 0.03
        total_w = (result.tail("w[0]", window)
                   + result.tail("w[1]", window))
        rtts = model.prop_delay + result.tail("q", window) \
            / model.capacity
        throughput = np.mean(total_w / rtts)
        assert throughput == pytest.approx(model.capacity, rel=0.1)

    def test_matches_packet_level_dctcp_queue(self, trace):
        """The fluid orbit centre agrees with the packet simulator's
        standing queue (tests/test_protocol_dctcp.py measures ~61 KB
        at the same K=65)."""
        model, result = trace
        assert 40.0 < result.tail_mean("q", 0.03) < 90.0

    def test_amplitude_grows_with_synchronized_flows(self):
        """In the fluid model every flow reacts to the same delayed
        marking signal -- perfectly synchronized cuts -- so the
        aggregate sawtooth swing *grows* with N (the desynchronization
        that softens real deployments is exactly what fluid models
        average away; cf. the paper's per-burst-pacing discussion)."""
        few = dde.integrate(make_model(num_flows=1), 0.1, dt=1e-6,
                            record_stride=20)
        many = dde.integrate(make_model(num_flows=8), 0.1, dt=1e-6,
                             record_stride=20)
        assert many.tail_std("q", 0.03) > few.tail_std("q", 0.03)
