"""Scenario-independent invariants the fuzzer checks every run against.

Two kinds of oracle:

* **per-run** -- properties any single :class:`ScenarioOutcome` must
  satisfy regardless of what the fuzzer rolled: byte/packet
  conservation, no watchdog aborts, monotone time stamps, a clean
  :class:`~repro.sim.invariants.InvariantMonitor`, exact packet-pool
  accounting (every loaned packet is either delivered-and-released or
  sitting in a drop counter), PFC pause/resume pairing (via the
  monitor), causal FCT attribution coverage when forensics ran, and
  -- on benign scenarios -- liveness (every finite flow completes).

* **pair** -- forensics on vs off must agree on
  :func:`~repro.qa.scenario.outcome_digest` exactly: attaching the
  observation machinery never changes simulated behaviour.

Every failed check is a :class:`Violation` naming the oracle, which
the shrinker uses as its acceptance criterion (a candidate scenario
still "fails" only if it trips the *same* oracle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.qa.scenario import ScenarioOutcome, ScenarioSpec, outcome_digest

#: Minimum causal-attribution coverage for completed flows under
#: forensics (the flow-forensics layer's own acceptance bar).
MIN_ATTRIBUTED_SHARE = 0.95


@dataclass(frozen=True)
class Violation:
    """One failed oracle check."""

    oracle: str                     #: stable oracle name
    message: str
    variant: str = ""               #: variant label(s) involved
    details: Dict[str, object] = field(default_factory=dict)

    def __str__(self) -> str:
        where = f" [{self.variant}]" if self.variant else ""
        return f"{self.oracle}{where}: {self.message}"


class OracleSuite:
    """The oracle catalog; see the module docstring.

    ``skip`` names oracles to disable (useful when triaging a known
    violation without drowning in secondary noise).
    """

    PER_RUN = ("no_abort", "invariants_clean", "conservation",
               "monotone_time", "pool_leak", "pool_double_release",
               "liveness", "fct_attribution")
    PAIR = ("bit_identical",)

    def __init__(self, skip: Optional[List[str]] = None):
        self.skip = frozenset(skip or ())

    # -- per-run ---------------------------------------------------------

    def check_run(self, spec: ScenarioSpec,
                  outcome: ScenarioOutcome) -> List[Violation]:
        violations: List[Violation] = []
        label = outcome.variant.label()

        def fail(oracle: str, message: str, **details) -> None:
            if oracle not in self.skip:
                violations.append(Violation(
                    oracle=oracle, message=message, variant=label,
                    details=details))

        if outcome.aborted is not None:
            fail("no_abort",
                 f"engine watchdog fired ({outcome.aborted}) after "
                 f"{outcome.events_processed} events",
                 reason=outcome.aborted)

        for text in outcome.invariant_violations:
            fail("invariants_clean", text)

        self._check_conservation(spec, outcome, fail)
        self._check_monotone_time(outcome, fail)
        self._check_pool(spec, outcome, fail)
        self._check_liveness(spec, outcome, fail)
        self._check_attribution(outcome, fail)
        return violations

    def _check_conservation(self, spec, outcome, fail) -> None:
        for flow in outcome.flows:
            if flow["bytes_delivered"] > flow["bytes_sent"]:
                fail("conservation",
                     f"flow {flow['flow_id']} delivered "
                     f"{flow['bytes_delivered']}B > sent "
                     f"{flow['bytes_sent']}B", flow_id=flow["flow_id"])
            if flow["completed"] and flow["size_bytes"] is not None \
                    and flow["bytes_delivered"] < flow["size_bytes"]:
                fail("conservation",
                     f"flow {flow['flow_id']} completed with "
                     f"{flow['bytes_delivered']}B < "
                     f"{flow['size_bytes']}B", flow_id=flow["flow_id"])
            if flow["completed"] and flow["fct"] is not None \
                    and flow["fct"] <= 0:
                fail("conservation",
                     f"flow {flow['flow_id']} has non-positive FCT "
                     f"{flow['fct']}", flow_id=flow["flow_id"])

    def _check_monotone_time(self, outcome, fail) -> None:
        if outcome.sim_time < 0:
            fail("monotone_time",
                 f"final sim time {outcome.sim_time} is negative")
        last_per_port: Dict[str, float] = {}
        for event in outcome.trace:
            time, port = event[0], event[1]
            if time < last_per_port.get(port, 0.0):
                fail("monotone_time",
                     f"trace time went backwards on {port}: "
                     f"{time} after {last_per_port[port]}", port=port)
                break
            last_per_port[port] = time
        times = [t for t, _ in outcome.queue_samples]
        if any(b < a for a, b in zip(times, times[1:])):
            fail("monotone_time", "queue samples out of order")

    def _check_pool(self, spec, outcome, fail) -> None:
        if outcome.pool["double_releases"]:
            fail("pool_double_release",
                 f"{outcome.pool['double_releases']} double release(s)"
                 " detected by the pool guard",
                 count=outcome.pool["double_releases"])
        # Exact loan accounting: a packet not returned to the pool
        # must sit in exactly one drop counter (FIFO tail drop, fault
        # black-hole, or flap drop).  Corrupted and delayed packets
        # are delivered and released, so they do not appear.  The
        # equation only holds at a *quiescent* cutoff -- long-lived
        # flows keep packets legitimately in flight (FIFOs, wires,
        # serializers) at the horizon, so those specs are exempt.
        if spec.long_lived:
            return
        expected = sum(s["queue_dropped_packets"]
                       + s["control_dropped_packets"]
                       for s in outcome.ports.values())
        expected += outcome.fault_stats.get("lost_packets", 0)
        expected += outcome.fault_stats.get("flap_drops", 0)
        # A FIFO backlog surviving to the cutoff (stranded flow after
        # an un-retransmitted drop) is a loan, not a leak.
        expected += sum(s["queued_at_end"]
                        for s in outcome.ports.values())
        if outcome.pool["outstanding"] != expected:
            fail("pool_leak",
                 f"{outcome.pool['outstanding']} packets outstanding, "
                 f"drop+backlog counters account for {expected}",
                 outstanding=outcome.pool["outstanding"],
                 expected=expected,
                 examples=outcome.pool["leaked_examples"])

    def _check_liveness(self, spec, outcome, fail) -> None:
        # Only benign scenarios guarantee completion: RoCE senders do
        # not retransmit, so any drop (faults, finite buffers) may
        # legitimately strand a flow; aborted runs prove nothing.
        if spec.faults or spec.buffer_kb is not None \
                or outcome.aborted is not None:
            return
        for flow in outcome.flows:
            if flow["size_bytes"] is None:
                continue
            if not flow["completed"]:
                fail("liveness",
                     f"flow {flow['flow_id']} "
                     f"({flow['src']}->{flow['dst']}, "
                     f"{flow['size_bytes']}B) never completed in a "
                     "lossless scenario", flow_id=flow["flow_id"],
                     delivered=flow["bytes_delivered"])

    def _check_attribution(self, outcome, fail) -> None:
        if outcome.forensics is None:
            return
        for event in outcome.forensics:
            share = event.get("attributed_share")
            if share is not None and share < MIN_ATTRIBUTED_SHARE:
                fail("fct_attribution",
                     f"flow {event['flow_id']} causal attribution "
                     f"covers {share:.3f} < {MIN_ATTRIBUTED_SHARE} "
                     "of its FCT", flow_id=event["flow_id"],
                     attributed_share=share)

    # -- pair ------------------------------------------------------------

    def check_pair(self, spec: ScenarioSpec, base: ScenarioOutcome,
                   other: ScenarioOutcome) -> List[Violation]:
        """Cross-variant contract between a baseline run and a peer."""
        if "bit_identical" in self.skip:
            return []
        if base.trace_truncated or other.trace_truncated:
            # A truncated trace window makes digests incomparable;
            # the fuzzer sizes scenarios to stay below the cap, so
            # flag it loudly rather than silently passing.
            return [Violation(
                oracle="bit_identical",
                message="trace buffer overflowed; scenario too large "
                        "for exact comparison",
                variant=f"{base.variant.label()} vs "
                        f"{other.variant.label()}")]
        da, db = outcome_digest(base), outcome_digest(other)
        if da == db:
            return []
        detail = _first_divergence(base, other)
        return [Violation(
            oracle="bit_identical",
            message=f"digest mismatch ({da[:12]} != {db[:12]}): "
                    f"{detail}",
            variant=f"{base.variant.label()} vs "
                    f"{other.variant.label()}",
            details={"base_digest": da, "other_digest": db})]


def _first_divergence(base: ScenarioOutcome,
                      other: ScenarioOutcome) -> str:
    """Human-readable pointer at where two outcomes part ways."""
    for i, (a, b) in enumerate(zip(base.trace, other.trace)):
        if a != b:
            return (f"trace event {i}: {a} vs {b}")
    if len(base.trace) != len(other.trace):
        return (f"trace lengths differ: {len(base.trace)} vs "
                f"{len(other.trace)}")
    for fa, fb in zip(base.flows, other.flows):
        if fa != fb:
            return f"flow {fa['flow_id']}: {fa} vs {fb}"
    for name in base.ports:
        if base.ports[name] != other.ports.get(name):
            return (f"port {name}: {base.ports[name]} vs "
                    f"{other.ports.get(name)}")
    return "identical streams but digests differ (hash bug?)"
