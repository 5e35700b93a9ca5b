"""Seeded generation of randomized-but-valid conformance scenarios.

The fuzzer's contract is *determinism*: scenario ``i`` of seed ``s``
is the same spec on every machine and every run
(``np.random.default_rng((s, i))`` keys a fresh generator per index,
so scenarios can also be regenerated individually).  Every generated
spec satisfies :meth:`ScenarioSpec.validate` -- the fuzzer draws from
the documented envelopes, never outside them.

Sizing discipline
-----------------
Two soft constraints shape the draws, both in service of the oracles:

* **duration slack** -- the run horizon is sized to the traffic
  (last start time + several times the serial transfer time + a
  settle margin) so benign scenarios go quiescent before the cutoff;
  the liveness and pool-conservation oracles rely on that.
* **fault confinement** -- fault windows close by mid-run, leaving
  the second half for re-injected (delayed) packets to settle and
  for stranded backlogs to drain into stable counters.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.qa.scenario import ScenarioSpec, FlowSpec, FaultSpec, host_names, port_names

#: Weights for how many of the four topologies come up; the
#: single-switch star is the paper's workhorse, so it dominates.
_TOPOLOGY_WEIGHTS = (("single_switch", 0.4), ("dumbbell", 0.25),
                     ("parking_lot", 0.15), ("leaf_spine", 0.2))

_PROTOCOL_WEIGHTS = (("dcqcn", 0.45), ("timely", 0.25),
                     ("patched_timely", 0.15), ("dctcp", 0.15))

#: Fraction of scenarios that carry a fault plan.
_FAULT_PROBABILITY = 0.35

#: Fraction of single-switch scenarios that run the finite-buffer /
#: PFC star instead of the infinite-buffer validation topology.
_STAR_BUFFER_PROBABILITY = 0.2
_STAR_PFC_PROBABILITY = 0.15

#: Fraction of eligible scenarios turned into long-lived DCQCN load
#: instead of finite transfers.
_LONG_LIVED_PROBABILITY = 0.15


class ScenarioFuzzer:
    """Deterministic scenario generator.

    ``ScenarioFuzzer(seed).generate(i)`` is a pure function of
    ``(seed, i)``.  Iterate with :meth:`scenarios`.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def scenarios(self, budget: int,
                  start: int = 0) -> Iterator[ScenarioSpec]:
        for index in range(start, start + budget):
            yield self.generate(index)

    def generate(self, index: int) -> ScenarioSpec:
        rng = np.random.default_rng((self.seed, index))
        topology = _weighted(rng, _TOPOLOGY_WEIGHTS)
        topology_args = self._draw_topology_args(rng, topology)
        link_gbps = float(rng.choice([1.0, 10.0, 25.0, 40.0]))
        link_delay_us = float(rng.uniform(1.0, 8.0))

        buffer_kb: Optional[float] = None
        pfc = False
        if topology == "single_switch":
            if rng.random() < _STAR_BUFFER_PROBABILITY:
                buffer_kb = float(rng.uniform(40.0, 400.0))
            if rng.random() < _STAR_PFC_PROBABILITY:
                pfc = True

        aqm = _weighted(rng, (("red", 0.6), ("pi", 0.25),
                              ("none", 0.15)))
        aqm_args = self._draw_aqm_args(rng, aqm)
        if pfc:
            # The PFC star pauses before the buffer fills; pair it
            # with marking so senders still get congestion signal.
            aqm = "red"
            aqm_args = self._draw_aqm_args(rng, "red")

        long_lived = (topology == "single_switch"
                      and buffer_kb is None and not pfc
                      and rng.random() < _LONG_LIVED_PROBABILITY)
        if long_lived:
            # Long-lived load runs at the paper RED operating point
            # on fast links, the regime of the paper's Figs. 2 and 5.
            aqm = "red"
            aqm_args = {}
            if link_gbps < 10.0:
                link_gbps = float(rng.choice([10.0, 25.0, 40.0]))
        spec = ScenarioSpec(
            topology=topology, topology_args=topology_args,
            link_gbps=link_gbps, link_delay_us=link_delay_us,
            aqm=aqm, aqm_args=aqm_args, flows=(), duration=1.0,
            seed=int(rng.integers(0, 2**31 - 1)),
            buffer_kb=buffer_kb, pfc=pfc)

        flows, duration = self._draw_traffic(rng, spec, long_lived)
        spec = spec.replace(flows=tuple(flows), duration=duration)

        if not long_lived and rng.random() < _FAULT_PROBABILITY:
            spec = spec.replace(
                faults=tuple(self._draw_faults(rng, spec)))

        spec = spec.replace(
            param_overrides=self._draw_overrides(rng, spec))
        spec.validate()
        return spec

    # -- draws -----------------------------------------------------------

    def _draw_topology_args(self, rng, topology: str) -> dict:
        if topology == "single_switch":
            return {"n_senders": int(rng.integers(1, 9))}
        if topology == "dumbbell":
            return {"n_pairs": int(rng.integers(1, 7))}
        if topology == "parking_lot":
            return {"n_segments": int(rng.integers(1, 5))}
        return {"n_leaves": int(rng.integers(2, 5)),
                "n_spines": int(rng.integers(1, 3)),
                "hosts_per_leaf": int(rng.integers(1, 5))}

    def _draw_aqm_args(self, rng, aqm: str) -> dict:
        if aqm == "red":
            kmin = float(rng.uniform(5.0, 60.0))
            return {"kmin_kb": kmin,
                    "kmax_kb": kmin + float(rng.uniform(40.0, 400.0)),
                    "pmax": float(rng.uniform(0.005, 0.2))}
        if aqm == "pi":
            return {"q_ref_kb": float(rng.uniform(10.0, 120.0))}
        return {}

    def _flow_endpoints(self, rng, spec: ScenarioSpec
                        ) -> List[Tuple[str, str]]:
        """Sender/receiver pairings native to the topology."""
        args = spec.topology_args
        if spec.topology == "single_switch":
            n = args["n_senders"]
            return [(f"s{i}", "recv") for i in range(n)]
        if spec.topology == "dumbbell":
            n = args["n_pairs"]
            return [(f"s{i}", f"r{i}") for i in range(n)]
        if spec.topology == "parking_lot":
            n = args["n_segments"]
            pairs = [("sx", "rx")]
            pairs += [(f"s{i}", f"r{i}") for i in range(n)]
            return pairs
        hosts = host_names(spec)
        rng.shuffle(hosts)
        half = max(1, len(hosts) // 2)
        return list(zip(hosts[:half], hosts[half:half * 2]))

    def _draw_traffic(self, rng, spec: ScenarioSpec,
                      long_lived: bool
                      ) -> Tuple[List[FlowSpec], float]:
        endpoints = self._flow_endpoints(rng, spec)
        if long_lived:
            # Every sender runs a full-span DCQCN elephant; fixed
            # horizon, no completion to wait on.
            flows = [FlowSpec("dcqcn", src, dst, None, 0.0)
                     for src, dst in endpoints]
            return flows, float(rng.uniform(0.01, 0.03))

        n_flows = int(rng.integers(1, min(len(endpoints), 8) + 1))
        chosen = [endpoints[i] for i in
                  rng.choice(len(endpoints), size=n_flows,
                             replace=False)]
        incast = (spec.topology == "single_switch"
                  and n_flows >= 3 and rng.random() < 0.4)
        max_start = 0.0
        total_bytes = 0
        flows: List[FlowSpec] = []
        for src, dst in chosen:
            protocol = _weighted(rng, _PROTOCOL_WEIGHTS)
            size = int(rng.integers(4, 1025)) * 1024
            start = 0.0 if incast \
                else float(rng.uniform(0.0, 0.002))
            flows.append(FlowSpec(protocol, src, dst, size, start))
            max_start = max(max_start, start)
            total_bytes += size
        # Horizon: startup jitter + 8x the serial transfer time at
        # the link rate + a settle margin.  Generous on purpose: the
        # liveness oracle treats a benign non-completion as a bug.
        serial = total_bytes / (spec.link_gbps * 1e9 / 8.0)
        duration = max_start + 8.0 * serial + 0.004
        return flows, float(min(duration, 0.25))

    def _draw_faults(self, rng, spec: ScenarioSpec
                     ) -> List[FaultSpec]:
        ports = port_names(spec)
        n_faults = int(rng.integers(1, 4))
        half = 0.5 * spec.duration
        faults: List[FaultSpec] = []
        for name in rng.choice(ports, size=min(n_faults, len(ports)),
                               replace=False):
            kind = _weighted(rng, (("loss", 0.35), ("corrupt", 0.2),
                                   ("delay", 0.3), ("flap", 0.15)))
            start = float(rng.uniform(0.0, 0.25 * spec.duration))
            stop = float(rng.uniform(start + 1e-4, half))
            if kind in ("loss", "corrupt"):
                faults.append(FaultSpec(
                    kind, str(name),
                    rate=float(rng.uniform(0.005, 0.08)),
                    start=start, stop=stop))
            elif kind == "delay":
                faults.append(FaultSpec(
                    kind, str(name),
                    extra=float(rng.uniform(5e-6, 1e-4)),
                    jitter=float(rng.uniform(0.0, 2e-5)),
                    start=start, stop=stop))
            else:
                faults.append(FaultSpec(
                    kind, str(name), start=start,
                    duration=float(rng.uniform(1e-4,
                                               half - start))))
        return faults

    def _draw_overrides(self, rng, spec: ScenarioSpec) -> dict:
        """Mild parameter perturbations around the paper defaults."""
        overrides: dict = {}
        protocols = {f.protocol for f in spec.flows}
        if "dcqcn" in protocols and rng.random() < 0.4:
            overrides["dcqcn"] = {
                # EWMA gain and R_AI (packets/s; paper default is
                # 40 Mbps ~= 4.9e3 pps at the 1 KB sim MTU).
                "g": float(rng.choice([1 / 32, 1 / 16, 1 / 8])),
                "rate_ai": float(rng.uniform(2e3, 1e4)),
            }
        if "timely" in protocols and rng.random() < 0.4:
            overrides["timely"] = {
                "beta": float(rng.uniform(0.5, 1.0)),
                "delta": float(rng.uniform(6e2, 2.5e3)),
            }
        if "dctcp" in protocols and rng.random() < 0.4:
            overrides["dctcp"] = {
                "g": float(rng.choice([1 / 32, 1 / 16, 1 / 8])),
            }
        return overrides


def _weighted(rng, table) -> str:
    names = [name for name, _ in table]
    weights = np.array([w for _, w in table], dtype=float)
    return str(rng.choice(names, p=weights / weights.sum()))
