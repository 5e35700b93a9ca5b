"""repro.qa -- specs, fuzzer, oracles, differential runner, capsules.

The end-to-end acceptance path (deliberate forensics-hook mutation
caught, shrunk and replayed) lives in ``tests/test_qa_mutation.py``; this
file covers the harness's components.
"""

import json

import pytest

from repro.obs.metrics import MetricsRegistry, use_registry
from repro.perf.resilience import replay_capsule
from repro.qa import (
    MATRIX,
    DifferentialRunner,
    FaultSpec,
    FlowSpec,
    OracleSuite,
    OracleViolation,
    ScenarioFuzzer,
    ScenarioOutcome,
    ScenarioSpec,
    Shrinker,
    Variant,
    check_scenario,
    corpus_capsules,
    outcome_digest,
    replay_corpus,
    run_fuzz,
    run_scenario,
)
from repro.qa.capsule import capsule_for_verdict, write_capsule
from repro.qa.driver import format_report
from repro.qa.scenario import build_network, host_names, port_names
from repro.sim.faults import collect_ports


def tiny_spec(n_flows=2, size=16384, **overrides):
    """A second-or-less single-switch scenario for component tests."""
    flows = tuple(FlowSpec("dcqcn", f"s{i}", "recv", size)
                  for i in range(n_flows))
    base = dict(topology="single_switch",
                topology_args={"n_senders": max(2, n_flows)},
                flows=flows, duration=0.004, seed=3)
    base.update(overrides)
    return ScenarioSpec(**base)


def synthetic_outcome(**overrides):
    """A minimal, oracle-clean outcome to perturb in unit tests."""
    base = dict(
        spec_key="deadbeef0000", variant=Variant("baseline"),
        flows=[], trace=[], ports={}, invariant_violations=[],
        pool={"outstanding": 0, "double_releases": 0,
              "leaked_examples": []},
        fault_stats={}, queue_samples=[], events_processed=10,
        sim_time=0.004)
    base.update(overrides)
    return ScenarioOutcome(**base)


def flow_row(**overrides):
    base = dict(flow_id=0, src="s0", dst="recv", protocol="dcqcn",
                size_bytes=16384, start_time=0.0, bytes_sent=16384,
                bytes_delivered=16384, completed=True, fct=1e-3)
    base.update(overrides)
    return base


class TestScenarioSpec:
    def test_round_trip_is_lossless(self):
        spec = tiny_spec(
            aqm="red", aqm_args={"kmin_kb": 5.0},
            param_overrides={"dcqcn": {"g": 0.125}},
            faults=(FaultSpec("loss", "sw->recv", rate=0.01,
                              stop=0.002),),
            buffer_kb=200.0)
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.key() == spec.key()

    def test_round_trip_survives_json(self):
        spec = tiny_spec(faults=(FaultSpec("delay", "sw->recv",
                                           extra=1e-5, jitter=1e-6),))
        payload = json.loads(json.dumps(spec.to_dict()))
        assert ScenarioSpec.from_dict(payload) == spec

    def test_key_tracks_content(self):
        spec = tiny_spec()
        assert spec.key() == tiny_spec().key()
        assert spec.key() != spec.replace(duration=0.005).key()
        assert len(spec.key()) == 12

    def test_validate_accepts_the_envelope(self):
        tiny_spec().validate()  # does not raise

    @pytest.mark.parametrize("overrides,fragment", [
        (dict(topology="clos"), "topology"),
        (dict(aqm="codel"), "aqm"),
        (dict(link_gbps=400.0), "link_gbps"),
        (dict(link_delay_us=0.1), "link_delay_us"),
        (dict(duration=0.0), "duration"),
        (dict(flows=()), "at least one flow"),
        (dict(flows=(FlowSpec("bbr", "s0", "recv", 16384),)),
         "protocol"),
        (dict(flows=(FlowSpec("dcqcn", "s9", "recv", 16384),)),
         "outside"),
        (dict(flows=(FlowSpec("dcqcn", "s0", "recv", 100),)),
         ">= 1 KB"),
        (dict(flows=(FlowSpec("dcqcn", "s0", "recv", 16384,
                              start_time=1.0),)), "start"),
        (dict(faults=(FaultSpec("loss", "nowhere", rate=0.1),)),
         "unknown port"),
        (dict(faults=(FaultSpec("meteor", "sw->recv"),)),
         "fault kind"),
    ])
    def test_validate_rejects(self, overrides, fragment):
        with pytest.raises(ValueError, match=fragment):
            tiny_spec(**overrides).validate()

    def test_pfc_and_buffers_are_star_only(self):
        flows = (FlowSpec("dcqcn", "s0", "r0", 16384),)
        spec = ScenarioSpec(topology="dumbbell",
                            topology_args={"n_pairs": 2},
                            flows=flows, duration=0.004, pfc=True)
        with pytest.raises(ValueError, match="pfc"):
            spec.validate()
        with pytest.raises(ValueError, match="buffers"):
            spec.replace(pfc=False, buffer_kb=100.0).validate()


class TestTopologyKnowledge:
    """port_names/host_names must mirror what the builders create."""

    @pytest.mark.parametrize("spec", [
        tiny_spec(n_flows=3),
        ScenarioSpec(topology="dumbbell",
                     topology_args={"n_pairs": 3},
                     flows=(FlowSpec("dcqcn", "s0", "r0", 16384),),
                     duration=0.004),
        ScenarioSpec(topology="parking_lot",
                     topology_args={"n_segments": 3},
                     flows=(FlowSpec("dcqcn", "sx", "rx", 16384),),
                     duration=0.004),
        ScenarioSpec(topology="leaf_spine",
                     topology_args={"n_leaves": 2, "n_spines": 2,
                                    "hosts_per_leaf": 2},
                     flows=(FlowSpec("dcqcn", "h0_0", "h1_0",
                                     16384),),
                     duration=0.004),
        tiny_spec(pfc=True, aqm="red"),
    ])
    def test_analytic_names_match_built_network(self, spec):
        net = build_network(spec)
        assert sorted(port_names(spec)) == sorted(collect_ports(net))
        assert set(host_names(spec)) == set(net.hosts)


class TestFuzzer:
    def test_generation_is_deterministic(self):
        a = ScenarioFuzzer(42)
        b = ScenarioFuzzer(42)
        for index in range(6):
            assert a.generate(index).key() == b.generate(index).key()

    def test_scenarios_differ_across_indexes_and_seeds(self):
        fuzzer = ScenarioFuzzer(0)
        keys = {fuzzer.generate(i).key() for i in range(12)}
        assert len(keys) == 12
        assert ScenarioFuzzer(1).generate(0).key() != \
            fuzzer.generate(0).key()

    def test_every_generated_spec_validates(self):
        fuzzer = ScenarioFuzzer(7)
        for index in range(24):
            spec = fuzzer.generate(index)
            spec.validate()  # in-envelope by construction
            assert spec.duration <= 0.25

    def test_long_lived_specs_run_dcqcn_at_paper_red(self):
        found = 0
        fuzzer = ScenarioFuzzer(2)
        for index in range(80):
            spec = fuzzer.generate(index)
            if spec.long_lived:
                found += 1
                assert spec.topology == "single_switch"
                assert spec.aqm == "red" and spec.aqm_args == {}
                assert spec.link_gbps >= 10.0
                assert not spec.faults and not spec.pfc
                assert all(f.protocol == "dcqcn"
                           and f.size_bytes is None
                           and f.start_time == 0.0
                           for f in spec.flows)
        assert found > 0


class TestOracleSuite:
    def check(self, outcome, spec=None):
        return OracleSuite().check_run(spec or tiny_spec(), outcome)

    def test_clean_outcome_passes(self):
        assert self.check(synthetic_outcome()) == []

    def test_abort_flagged(self):
        got = self.check(synthetic_outcome(aborted="max_events"))
        assert [v.oracle for v in got] == ["no_abort"]

    def test_invariant_violations_forwarded(self):
        got = self.check(synthetic_outcome(
            invariant_violations=["queue went negative"]))
        assert got[0].oracle == "invariants_clean"
        assert "negative" in got[0].message

    def test_conservation_catches_over_delivery(self):
        got = self.check(synthetic_outcome(
            flows=[flow_row(bytes_delivered=999999)]))
        assert "conservation" in [v.oracle for v in got]

    def test_conservation_catches_short_completion(self):
        got = self.check(synthetic_outcome(
            flows=[flow_row(bytes_sent=16384,
                            bytes_delivered=8192)]))
        assert "conservation" in [v.oracle for v in got]

    def test_monotone_time_catches_backwards_trace(self):
        got = self.check(synthetic_outcome(
            trace=[(2e-3, "sw->recv", 0), (1e-3, "sw->recv", 1)]))
        assert [v.oracle for v in got] == ["monotone_time"]

    def test_pool_leak_balances_against_drop_counters(self):
        ports = {"sw->recv": {"queue_dropped_packets": 3,
                              "control_dropped_packets": 0,
                              "queued_at_end": 1}}
        clean = synthetic_outcome(
            ports=ports, pool={"outstanding": 4,
                               "double_releases": 0,
                               "leaked_examples": []})
        assert self.check(clean) == []
        leaky = synthetic_outcome(
            ports=ports, pool={"outstanding": 5,
                               "double_releases": 0,
                               "leaked_examples": ["Packet(...)"]})
        got = self.check(leaky)
        assert [v.oracle for v in got] == ["pool_leak"]

    def test_pool_leak_exempts_long_lived_specs(self):
        spec = tiny_spec().replace(flows=(
            FlowSpec("dcqcn", "s0", "recv", None),))
        got = self.check(synthetic_outcome(
            pool={"outstanding": 7, "double_releases": 0,
                  "leaked_examples": []}), spec=spec)
        assert got == []

    def test_double_release_flagged(self):
        got = self.check(synthetic_outcome(
            pool={"outstanding": 0, "double_releases": 2,
                  "leaked_examples": []}))
        assert [v.oracle for v in got] == ["pool_double_release"]

    def test_liveness_only_on_benign_scenarios(self):
        stuck = synthetic_outcome(flows=[flow_row(
            completed=False, bytes_delivered=8192, fct=None)])
        got = self.check(stuck)
        assert "liveness" in [v.oracle for v in got]
        faulty = tiny_spec(faults=(
            FaultSpec("loss", "sw->recv", rate=0.05),))
        assert self.check(stuck, spec=faulty) == []

    def test_attribution_gate(self):
        got = self.check(synthetic_outcome(
            forensics=[{"flow_id": 0, "attributed_share": 0.5}]))
        assert [v.oracle for v in got] == ["fct_attribution"]
        assert self.check(synthetic_outcome(
            forensics=[{"flow_id": 0,
                        "attributed_share": 0.99}])) == []

    def test_skip_disables_an_oracle(self):
        suite = OracleSuite(skip=["no_abort"])
        got = suite.check_run(tiny_spec(),
                              synthetic_outcome(aborted="wall_clock"))
        assert got == []

    def test_bit_identical_pair(self):
        suite = OracleSuite()
        base = synthetic_outcome(trace=[(1e-3, "sw->recv", 0)])
        twin = synthetic_outcome(trace=[(1e-3, "sw->recv", 0)],
                                 variant=MATRIX["forensics"])
        assert suite.check_pair(tiny_spec(), base, twin) == []
        skewed = synthetic_outcome(
            trace=[(2e-3, "sw->recv", 0)],
            variant=MATRIX["forensics"])
        got = suite.check_pair(tiny_spec(), base, skewed)
        assert [v.oracle for v in got] == ["bit_identical"]
        assert "trace event 0" in got[0].message

    def test_truncated_trace_fails_loudly(self):
        suite = OracleSuite()
        base = synthetic_outcome(trace_truncated=True)
        got = suite.check_pair(tiny_spec(), base, synthetic_outcome(
            variant=MATRIX["forensics"]))
        assert [v.oracle for v in got] == ["bit_identical"]
        assert "overflow" in got[0].message


class TestDifferentialRunner:
    def test_rejects_unknown_classes(self):
        assert set(MATRIX) == {"baseline", "forensics"}
        with pytest.raises(ValueError, match="unknown matrix"):
            DifferentialRunner(classes=["forensics", "quantum"])
        with pytest.raises(ValueError, match="unknown matrix"):
            DifferentialRunner(classes=["baseline"])
        for removed in ("scheduler", "window", "hybrid"):
            with pytest.raises(ValueError, match="unknown matrix"):
                DifferentialRunner(classes=[removed])

    def test_matrix_agrees_on_a_tiny_scenario(self):
        runner = DifferentialRunner()
        verdict = runner.run(tiny_spec(aqm="red"))
        assert verdict.ok, [str(v) for v in verdict.violations]
        assert set(verdict.outcomes) == {"baseline", "forensics"}
        digests = {outcome_digest(o)
                   for o in verdict.outcomes.values()}
        assert len(digests) == 1


class TestRunScenario:
    def test_outcome_shape(self):
        outcome = run_scenario(tiny_spec())
        assert outcome.aborted is None
        assert outcome.trace and not outcome.trace_truncated
        assert outcome.pool["outstanding"] == 0
        assert all(f["completed"] for f in outcome.flows)
        assert outcome.sim_time <= 0.004 + 1e-12

    def test_deterministic_digest(self):
        spec = tiny_spec()
        a = outcome_digest(run_scenario(spec))
        b = outcome_digest(run_scenario(spec))
        assert a == b


class TestShrinkerValueGuard:
    def test_refuses_a_spec_that_does_not_trip(self):
        runner = DifferentialRunner(classes=["forensics"])
        with pytest.raises(ValueError, match="does not trip"):
            Shrinker(runner).shrink(tiny_spec(), "bit_identical")


class TestCapsuleRoundTrip:
    def test_check_scenario_clean_path(self):
        spec = tiny_spec()
        result = check_scenario(spec.to_dict(), matrix=["forensics"])
        assert result["spec_key"] == spec.key()
        assert result["variants_run"] == ["baseline", "forensics"]

    def test_check_scenario_raises_on_violation(self):
        # An aborting scenario (absurdly low event budget is not
        # reachable through specs, so lean on liveness instead: a
        # flow that cannot finish in the run on a lossless star).
        spec = tiny_spec(size=4 * 1024 * 1024, duration=0.002)
        with pytest.raises(OracleViolation) as excinfo:
            check_scenario(spec.to_dict(), matrix=["forensics"])
        assert "liveness" in excinfo.value.oracles

    def test_capsule_replay_round_trip(self, tmp_path):
        spec = tiny_spec(size=4 * 1024 * 1024, duration=0.002)
        runner = DifferentialRunner(classes=["forensics"])
        verdict = runner.run(spec)
        assert not verdict.ok
        capsule = capsule_for_verdict(verdict, fuzz_seed=9, index=4,
                                      matrix=["forensics"])
        path = write_capsule(capsule, tmp_path)
        assert path.exists()
        result = replay_capsule(path)
        assert result.reproduced
        assert result.error_type == "OracleViolation"

    def test_corpus_helpers_on_missing_dir(self, tmp_path):
        assert corpus_capsules(tmp_path / "nope") == []
        assert list(replay_corpus(tmp_path / "nope")) == []


class TestRunFuzz:
    def test_requires_a_bound(self):
        with pytest.raises(ValueError, match="budget"):
            run_fuzz()
        with pytest.raises(ValueError, match=">= 1"):
            run_fuzz(budget=0)

    def test_small_campaign_is_clean(self):
        report = run_fuzz(budget=2, seed=0, matrix=["forensics"])
        assert report.ok
        assert report.scenarios_run == 2
        assert report.findings == []
        assert "all oracles clean" in format_report(report)

    def test_campaign_bumps_metrics(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            run_fuzz(budget=1, seed=1, matrix=["forensics"])
        assert registry.counter(
            "qa.fuzz.scenarios_total").value == 1
        assert registry.gauge(
            "qa.fuzz.last_run_scenarios").value == 1


class TestFuzzCLI:
    def test_fuzz_smoke(self, capsys, tmp_path):
        from repro.__main__ import main
        rc = main(["fuzz", "--budget", "1", "--seed", "0",
                   "--matrix", "forensics",
                   "--capsule-dir", str(tmp_path / "capsules")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fuzz seed=0: 1 scenarios" in out
        assert "all oracles clean" in out

    def test_fuzz_requires_a_bound(self, capsys):
        from repro.__main__ import main
        assert main(["fuzz"]) == 2
        assert "--budget" in capsys.readouterr().err

    def test_fuzz_rejects_unknown_matrix_class(self, capsys):
        from repro.__main__ import main
        assert main(["fuzz", "--budget", "1",
                     "--matrix", "quantum"]) == 2
        assert "quantum" in capsys.readouterr().err

    def test_fuzz_writes_telemetry(self, capsys, tmp_path):
        from repro.__main__ import main
        from repro.obs.runlog import read_events
        rc = main(["fuzz", "--budget", "1", "--seed", "0",
                   "--matrix", "forensics",
                   "--capsule-dir", str(tmp_path / "capsules"),
                   "--telemetry", str(tmp_path / "telemetry")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[telemetry:" in out
        log = next((tmp_path / "telemetry").rglob("*.jsonl"))
        fuzz_events = [e for e in read_events(log)
                       if e["type"] == "fuzz"]
        kinds = [e["event"] for e in fuzz_events]
        assert kinds[0] == "summary_start"
        assert kinds[-1] == "summary"
        assert "scenario_ok" in kinds


class TestRegressionCorpus:
    """Checked-in capsules must stay fixed on shipped code."""

    def test_corpus_does_not_reproduce(self):
        from pathlib import Path
        corpus = Path(__file__).parent / "corpus"
        results = list(replay_corpus(corpus))
        assert results, "regression corpus is empty"
        for path, result in results:
            assert not result.reproduced, (
                f"{path.name} reproduced again: "
                f"{result.error_type}: {result.error_message}")
