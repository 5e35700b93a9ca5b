"""Acceptance path: an injected observation bug travels the whole harness.

A deliberately broken :class:`~repro.obs.forensics.FlowLedger` hook
(``on_enqueue`` sets the CE mark on every 7th enqueued data packet --
the kind of side effect a real forensics regression would introduce
by writing where it should only read) must be

1. caught by the forensics off/on ``bit_identical`` oracle of the
   differential matrix (the per-run oracles see a valid, merely
   different, run),
2. reduced by the :class:`~repro.qa.shrink.Shrinker` to a smaller
   scenario that still trips the same oracle, and
3. persisted as a crash capsule that *reproduces* under ``repro
   replay`` while the bug is live and replays *clean* once the
   mutation is reverted (the fixed-bug / regression-corpus workflow).
"""

from repro.obs.forensics import FlowLedger
from repro.perf.resilience import replay_capsule
from repro.qa import (
    DifferentialRunner,
    FaultSpec,
    FlowSpec,
    ScenarioSpec,
    Shrinker,
)
from repro.qa.capsule import capsule_for_verdict, write_capsule

_REAL_ON_ENQUEUE = FlowLedger.on_enqueue
_REAL_REGISTER_FLOW = FlowLedger.register_flow


def _marking_on_enqueue(self, port, packet):
    """The injected bug: every 7th enqueued data packet turns CE.

    Only ledger-attached runs execute the hook, so the baseline is
    untouched and the forensics run receives spurious marks -- its
    receivers send CNPs the baseline never sends.
    """
    _REAL_ON_ENQUEUE(self, port, packet)
    if packet.kind != "data":
        return
    count = getattr(self, "_mutation_enqueues", 0) + 1
    self._mutation_enqueues = count
    if count % 7 == 3:
        packet.ecn_marked = True


def mutation_spec():
    """A deliberately over-dressed scenario (so the shrinker has
    flows, a fault and overrides to strip)."""
    return ScenarioSpec(
        topology="single_switch",
        topology_args={"n_senders": 4},
        aqm="red",
        flows=tuple(FlowSpec("dcqcn", f"s{i}", "recv", 32768)
                    for i in range(4)),
        param_overrides={"dcqcn": {"g": 0.125}},
        faults=(FaultSpec("delay", "sw->recv", extra=1e-5,
                          start=0.0, stop=0.001),),
        duration=0.006, seed=11)


class TestDeliberateMutation:
    def test_clean_engine_passes_the_matrix(self):
        runner = DifferentialRunner(classes=["forensics"])
        verdict = runner.run(mutation_spec())
        assert verdict.ok, [str(v) for v in verdict.violations]

    def test_mutation_is_caught_shrunk_and_replayed(self, tmp_path,
                                                    monkeypatch):
        spec = mutation_spec()
        runner = DifferentialRunner(classes=["forensics"])

        with monkeypatch.context() as patch:
            patch.setattr(FlowLedger, "on_enqueue", _marking_on_enqueue)

            # 1. Only the off/on oracle catches the mutation.
            verdict = runner.run(spec)
            assert verdict.oracles_failed() == ["bit_identical"]

            # 2. The shrinker reduces it, preserving the oracle.
            result = Shrinker(runner).shrink(spec, "bit_identical")
            assert result.reduced
            shrunk = result.spec
            assert "bit_identical" in \
                result.verdict.oracles_failed()
            assert len(shrunk.flows) < len(spec.flows)
            assert not shrunk.faults
            assert not shrunk.param_overrides

            # 3. The capsule reproduces while the bug is live.
            capsule = capsule_for_verdict(
                result.verdict, fuzz_seed=0, index=0,
                matrix=["forensics"])
            assert capsule.fn == "repro.qa.capsule:check_scenario"
            assert capsule.error_type == "OracleViolation"
            path = write_capsule(capsule, tmp_path)
            replay = replay_capsule(path)
            assert replay.reproduced
            assert replay.error_type == "OracleViolation"
            assert "bit_identical" in replay.error_message

        # 4. With the mutation reverted ("bug fixed"), the same
        # capsule replays clean -- exactly what the regression
        # corpus asserts about shipped code.
        assert FlowLedger.on_enqueue is _REAL_ON_ENQUEUE
        replay = replay_capsule(path)
        assert not replay.reproduced

    def test_mutated_sender_state_is_caught(self, monkeypatch):
        # A second, orthogonal defect family: the ledger reaching
        # into protocol state instead of packet fields.  Nudging each
        # registered sender's rate shifts its pacing clock, which the
        # trace digest exposes.
        def nudging_register_flow(self, flow, protocol=None,
                                  sender=None):
            _REAL_REGISTER_FLOW(self, flow, protocol=protocol,
                                sender=sender)
            sender.rate = sender.rate * (1.0 - 1e-6)

        spec = mutation_spec().replace(faults=(),
                                       param_overrides={})
        runner = DifferentialRunner(classes=["forensics"])
        with monkeypatch.context() as patch:
            patch.setattr(FlowLedger, "register_flow",
                          nudging_register_flow)
            verdict = runner.run(spec)
        assert "bit_identical" in verdict.oracles_failed()
