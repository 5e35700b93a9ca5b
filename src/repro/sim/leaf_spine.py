"""Two-tier leaf-spine fabric -- the paper's "larger, realistic
topology" future work.

``n_leaves`` top-of-rack switches, each with ``hosts_per_leaf``
servers, fully meshed to ``n_spines`` spine switches.  Cross-rack
packets take host -> leaf -> spine -> leaf -> host; the spine is
chosen per (source, destination) pair with a deterministic hash --
the static-ECMP idealization (no per-packet spraying, so flows never
reorder, which matters since the protocols here have no reordering
recovery).

Uplinks can be oversubscribed: with ``n_spines * spine_gbps <
hosts_per_leaf * host_gbps`` the leaf uplinks become the contended
resource, the realistic regime for FCT studies.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional

from repro import units
from repro.sim.engine import Simulator
from repro.sim.flows import FlowRegistry
from repro.sim.node import Host
from repro.sim.switch import Switch, connect
from repro.sim.topology import Network


def host_name(leaf: int, index: int) -> str:
    """Canonical host naming: ``h<leaf>_<index>``."""
    return f"h{leaf}_{index}"


def _stable_hash(*parts: str) -> int:
    """Deterministic cross-run hash (Python's builtin is salted)."""
    digest = hashlib.sha256("|".join(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def leaf_spine(n_leaves: int = 4,
               n_spines: int = 2,
               hosts_per_leaf: int = 4,
               host_gbps: float = 10.0,
               spine_gbps: float = 10.0,
               link_delay: float = units.us(1),
               mtu_bytes: int = units.DEFAULT_MTU_BYTES,
               marker_factory: Optional[Callable[[], object]] = None
               ) -> Network:
    """Build the fabric and install hash-based spine selection.

    ``marker_factory() -> marker`` supplies a fresh AQM marker for
    *every* switch egress port (every port can become a bottleneck in
    a fabric); None disables marking.

    The returned network's ``bottleneck_port`` is the first leaf's
    first uplink (a representative contended port); per-port counters
    on every switch remain accessible through ``net.switches``.
    """
    if n_leaves < 2:
        raise ValueError(f"need at least 2 leaves, got {n_leaves}")
    if n_spines < 1:
        raise ValueError(f"need at least 1 spine, got {n_spines}")
    if hosts_per_leaf < 1:
        raise ValueError(
            f"need at least 1 host per leaf, got {hosts_per_leaf}")

    sim = Simulator()
    host_rate = host_gbps * 1e9 / units.BITS_PER_BYTE
    spine_rate = spine_gbps * 1e9 / units.BITS_PER_BYTE

    def marker():
        return marker_factory() if marker_factory else None

    leaves = [Switch(sim, f"leaf{i}") for i in range(n_leaves)]
    spines = [Switch(sim, f"spine{j}") for j in range(n_spines)]
    switches: Dict[str, Switch] = {s.name: s for s in leaves + spines}
    hosts: Dict[str, Host] = {}
    host_leaf: Dict[str, int] = {}

    # Leaf <-> spine mesh.
    first_uplink = None
    for leaf_idx, leaf in enumerate(leaves):
        for spine in spines:
            uplink = connect(sim, leaf, spine, spine_rate, link_delay,
                             marker=marker())
            connect(sim, spine, leaf, spine_rate, link_delay,
                    marker=marker())
            if first_uplink is None:
                first_uplink = uplink

    # Hosts onto leaves.
    for leaf_idx, leaf in enumerate(leaves):
        for h in range(hosts_per_leaf):
            name = host_name(leaf_idx, h)
            host = Host(sim, name)
            hosts[name] = host
            host_leaf[name] = leaf_idx
            connect(sim, host, leaf, host_rate, link_delay)
            connect(sim, leaf, host, host_rate, link_delay,
                    marker=marker())

    # Routing.  Leaves: local hosts direct; remote hosts via the
    # per-destination-hash spine.  Spines: every host via its leaf.
    for leaf_idx, leaf in enumerate(leaves):
        for name, loc in host_leaf.items():
            if loc == leaf_idx:
                leaf.add_route(name, name)
            else:
                spine_idx = _stable_hash(leaf.name, name) % n_spines
                leaf.add_route(name, spines[spine_idx].name)
    for spine in spines:
        for name, loc in host_leaf.items():
            spine.add_route(name, leaves[loc].name)

    return Network(sim=sim, hosts=hosts, switches=switches,
                   registry=FlowRegistry(),
                   bottleneck_port=first_uplink,
                   mtu_bytes=mtu_bytes, link_rate_bytes=host_rate)


def _spine_names(net: Network) -> List[str]:
    """Spine switch names in index order."""
    return sorted((name for name in net.switches if name.startswith("spine")),
                  key=lambda name: int(name[len("spine"):]))


def reroute_around_spine(net: Network, leaf_name: str,
                         spine_name: str) -> int:
    """Steer ``leaf_name``'s routes off ``spine_name`` onto survivors.

    The topology-aware reaction to a failed leaf->spine uplink: every
    FIB entry at the leaf that pointed at the dark spine is re-hashed
    (deterministically) across the remaining spines, so cross-rack
    traffic reroutes instead of black-holing.  Returns the number of
    rewritten routes.  With a single spine there is nowhere to go and
    the traffic legitimately stalls -- 0 is returned.

    Designed as the ``on_link_down`` callback of a
    :class:`repro.sim.faults.FaultInjector` (parse the port name
    ``"leafX->spineY"`` and delegate here); pair with
    :func:`restore_spine_routes` on link recovery.
    """
    leaf = net.switches[leaf_name]
    survivors = [s for s in _spine_names(net) if s != spine_name]
    if not survivors:
        return 0
    rewritten = 0
    for dst, via in list(leaf.fib.items()):
        if via == spine_name:
            pick = _stable_hash(leaf_name, dst) % len(survivors)
            leaf.fib[dst] = survivors[pick]
            rewritten += 1
    return rewritten


def restore_spine_routes(net: Network, leaf_name: str) -> int:
    """Recompute ``leaf_name``'s original hash-based spine choices.

    Undoes :func:`reroute_around_spine` once the flapped uplink is
    back: every cross-rack route returns to the spine the original
    ECMP hash selected.  Returns the number of routes touched.
    """
    leaf = net.switches[leaf_name]
    spines = _spine_names(net)
    restored = 0
    for dst, via in list(leaf.fib.items()):
        if via == dst:
            continue  # local host, not a spine route
        original = spines[_stable_hash(leaf_name, dst) % len(spines)]
        if via != original:
            leaf.fib[dst] = original
            restored += 1
    return restored


def cross_rack_pairs(n_leaves: int, hosts_per_leaf: int
                     ) -> List["tuple[str, str]"]:
    """A rack-rotation permutation: every host sends to the host with
    its own index on the next rack -- all traffic crosses the spine."""
    pairs = []
    for leaf in range(n_leaves):
        for idx in range(hosts_per_leaf):
            src = host_name(leaf, idx)
            dst = host_name((leaf + 1) % n_leaves, idx)
            pairs.append((src, dst))
    return pairs
