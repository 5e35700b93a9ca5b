"""Parameter sets for DCQCN, TIMELY, patched TIMELY, and the PI controller.

All dataclasses store values in the package's internal units (seconds,
packets, packets/second; see :mod:`repro.units`).  Factory classmethods
build the default configurations the paper uses:

* :meth:`DCQCNParams.paper_default` -- the SIGCOMM'15 defaults [31] the
  paper adopts (Section 3.1, "DCQCN parameters are set to the values
  proposed in [31]").
* :meth:`TimelyParams.paper_default` -- footnote 4 of the paper:
  ``C = 10 Gbps, beta = 0.8, alpha = 0.875, T_low = 50 us,
  T_high = 500 us, D_minRTT = 20 us`` plus ``delta = 10 Mbps`` from
  Section 4.2.
* :meth:`PatchedTimelyParams.paper_default` -- Section 4.3:
  "All other TIMELY parameters remain the same except we set
  beta = 0.008 and Seg = 16KB".
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

from repro import units


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(
            f"{name} must be finite and positive, got {value}")


def _require_nonnegative(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(
            f"{name} must be finite and >= 0, got {value}")


def _require_count(name: str, value: int) -> None:
    # numpy integers are Integral; bool is too, but is no count.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value <= 0:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _require_fraction(name: str, value: float) -> None:
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must be in (0, 1], got {value}")


@dataclass(frozen=True)
class REDParams:
    """RED-like ECN marking profile at the congestion point (Eq. 3).

    ``p(q)`` is 0 below ``kmin``, rises linearly to ``pmax`` at ``kmax``,
    and is 1 above ``kmax``.
    """

    kmin: float  #: lower threshold, packets
    kmax: float  #: upper threshold, packets
    pmax: float  #: marking probability at ``kmax``

    def __post_init__(self) -> None:
        _require_positive("kmin", self.kmin)
        _require_positive("kmax", self.kmax)
        if self.kmax <= self.kmin:
            raise ValueError(
                f"kmax ({self.kmax}) must exceed kmin ({self.kmin})")
        _require_fraction("pmax", self.pmax)

    def marking_probability(self, queue: float) -> float:
        """Evaluate Eq. 3 of the paper at queue depth ``queue`` packets."""
        if queue <= self.kmin:
            return 0.0
        if queue > self.kmax:
            return 1.0
        return (queue - self.kmin) / (self.kmax - self.kmin) * self.pmax

    def queue_for_probability(self, p: float, extend: bool = False) -> float:
        """Invert Eq. 3 on the linear segment (Eq. 9 of the paper).

        With ``extend=True`` the linear ramp is extrapolated past
        ``pmax`` instead of raising -- the smooth-RED idealization the
        stability analysis linearizes around (the physical profile
        jumps to p=1 at ``kmax``, which has no slope to linearize).
        """
        if not 0.0 <= p <= self.pmax and not extend:
            raise ValueError(
                f"p={p} outside the RED profile's linear range "
                f"[0, {self.pmax}]; pass extend=True to extrapolate")
        if p < 0.0:
            raise ValueError(f"p must be >= 0, got {p}")
        return self.kmin + p / self.pmax * (self.kmax - self.kmin)

    @property
    def slope(self) -> float:
        """Marking slope ``pmax / (kmax - kmin)`` per packet of queue."""
        return self.pmax / (self.kmax - self.kmin)

    @classmethod
    def paper_default(
            cls,
            mtu_bytes: int = units.DEFAULT_MTU_BYTES,
    ) -> "REDParams":
        """Defaults from [31]: Kmin=5KB, Kmax=200KB, Pmax=1%."""
        _require_positive("mtu_bytes", mtu_bytes)
        return cls(kmin=units.kb_to_packets(5, mtu_bytes),
                   kmax=units.kb_to_packets(200, mtu_bytes),
                   pmax=0.01)


@dataclass(frozen=True)
class DCQCNParams:
    """Full DCQCN parameter set (Table 1 of the paper).

    Rates are packets/second, times seconds, counters packets.
    """

    red: REDParams
    capacity: float        #: bottleneck bandwidth C, packets/s
    num_flows: int         #: N, number of flows at the bottleneck
    g: float               #: EWMA gain of Eq. 1 (DCTCP-style)
    tau: float             #: CNP generation timer, seconds (50 us)
    tau_prime: float       #: alpha-update interval of Eq. 2, seconds (55 us)
    tau_star: float        #: control-loop (feedback) delay, seconds
    fast_recovery_steps: int   #: F, fixed at 5
    byte_counter: float    #: B, packets between byte-counter events
    timer: float           #: T, rate-increase timer, seconds (55 us)
    rate_ai: float         #: R_AI additive increase, packets/s (40 Mbps)
    rate_hai: float        #: R_HAI hyper increase, packets/s (sim only)
    mtu_bytes: int = units.DEFAULT_MTU_BYTES

    def __post_init__(self) -> None:
        _require_positive("capacity", self.capacity)
        _require_count("num_flows", self.num_flows)
        _require_fraction("g", self.g)
        _require_positive("tau", self.tau)
        _require_positive("tau_prime", self.tau_prime)
        _require_nonnegative("tau_star", self.tau_star)
        _require_positive("fast_recovery_steps", self.fast_recovery_steps)
        _require_positive("byte_counter", self.byte_counter)
        _require_positive("timer", self.timer)
        _require_positive("rate_ai", self.rate_ai)
        _require_positive("rate_hai", self.rate_hai)
        _require_positive("mtu_bytes", self.mtu_bytes)
        if self.tau_prime < self.tau:
            raise ValueError(
                "tau_prime (alpha decay interval) must be larger than the "
                f"CNP timer tau; got tau'={self.tau_prime}, tau={self.tau}")

    @property
    def fair_share(self) -> float:
        """The per-flow fixed-point rate C/N (Theorem 1), packets/s."""
        return self.capacity / self.num_flows

    def replace(self, **changes) -> "DCQCNParams":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def paper_default(cls,
                      capacity_gbps: float = 40.0,
                      num_flows: int = 2,
                      tau_star_us: float = 4.0,
                      mtu_bytes: int = units.DEFAULT_MTU_BYTES,
                      ) -> "DCQCNParams":
        """The configuration of [31] used throughout Section 3.

        ``tau_star_us`` is the control-loop delay; the paper sweeps it
        from 4 us (one-hop propagation) up to 100 us.
        """
        _require_positive("mtu_bytes", mtu_bytes)
        return cls(
            red=REDParams.paper_default(mtu_bytes),
            capacity=units.gbps_to_pps(capacity_gbps, mtu_bytes),
            num_flows=num_flows,
            g=1.0 / 256.0,
            tau=units.us(50),
            tau_prime=units.us(55),
            tau_star=units.us(tau_star_us),
            fast_recovery_steps=5,
            byte_counter=units.mb_to_packets(10, mtu_bytes),
            timer=units.us(55),
            rate_ai=units.mbps_to_pps(40, mtu_bytes),
            rate_hai=units.mbps_to_pps(400, mtu_bytes),
            mtu_bytes=mtu_bytes,
        )


@dataclass(frozen=True)
class TimelyParams:
    """TIMELY parameter set (Table 2 of the paper)."""

    capacity: float        #: bottleneck bandwidth C, packets/s
    num_flows: int         #: N
    ewma_alpha: float      #: EWMA smoothing factor (0.875 in [21])
    delta: float           #: additive increase step, packets/s (10 Mbps)
    beta: float            #: multiplicative decrease factor (0.8)
    t_low: float           #: low RTT threshold, seconds (50 us)
    t_high: float          #: high RTT threshold, seconds (500 us)
    min_rtt: float         #: D_minRTT normalization, seconds (20 us)
    prop_delay: float      #: D_prop propagation delay, seconds
    segment: float         #: burst size Seg, packets (16 KB or 64 KB)
    mtu_bytes: int = units.DEFAULT_MTU_BYTES

    def __post_init__(self) -> None:
        _require_positive("capacity", self.capacity)
        _require_count("num_flows", self.num_flows)
        _require_fraction("ewma_alpha", self.ewma_alpha)
        _require_positive("delta", self.delta)
        _require_fraction("beta", self.beta)
        _require_positive("t_low", self.t_low)
        _require_positive("t_high", self.t_high)
        if self.t_high <= self.t_low:
            raise ValueError(
                f"t_high ({self.t_high}) must exceed t_low ({self.t_low})")
        _require_positive("min_rtt", self.min_rtt)
        _require_nonnegative("prop_delay", self.prop_delay)
        _require_positive("segment", self.segment)
        _require_positive("mtu_bytes", self.mtu_bytes)

    @property
    def fair_share(self) -> float:
        """Per-flow fair rate C/N, packets/s."""
        return self.capacity / self.num_flows

    @property
    def q_low(self) -> float:
        """Queue depth (packets) whose queuing delay equals ``t_low``.

        The fluid model compares ``q(t - tau')`` against ``C * T_low``
        (Eq. 21); this is that product in internal units.
        """
        return self.capacity * self.t_low

    @property
    def q_high(self) -> float:
        """Queue depth (packets) whose queuing delay equals ``t_high``."""
        return self.capacity * self.t_high

    def replace(self, **changes) -> "TimelyParams":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def paper_default(cls,
                      capacity_gbps: float = 10.0,
                      num_flows: int = 2,
                      prop_delay_us: float = 4.0,
                      segment_kb: float = 16.0,
                      mtu_bytes: int = units.DEFAULT_MTU_BYTES,
                      ) -> "TimelyParams":
        """Footnote-4 defaults of the paper (values recommended in [21])."""
        _require_positive("mtu_bytes", mtu_bytes)
        return cls(
            capacity=units.gbps_to_pps(capacity_gbps, mtu_bytes),
            num_flows=num_flows,
            ewma_alpha=0.875,
            delta=units.mbps_to_pps(10, mtu_bytes),
            beta=0.8,
            t_low=units.us(50),
            t_high=units.us(500),
            min_rtt=units.us(20),
            prop_delay=units.us(prop_delay_us),
            segment=units.kb_to_packets(segment_kb, mtu_bytes),
            mtu_bytes=mtu_bytes,
        )


@dataclass(frozen=True)
class PatchedTimelyParams:
    """Patched TIMELY (Algorithm 2 / Eq. 29-30) parameter set.

    Extends :class:`TimelyParams` semantics with the reference queue
    ``q_ref`` (the paper's ``q'``, set to ``C * T_low``), the
    piecewise-linear gradient weight ``w(g)`` breakpoint, and the
    band-specific decrease gain ``beta_band``.

    Section 4.3 sets ``beta = 0.008``; we apply it to the Eq. 29
    gradient-band term it appears in.  The ``T_high`` emergency brake
    keeps the base TIMELY ``beta`` -- a 0.8% maximum cut would take
    hundreds of updates to recover from an incast spike, defeating the
    branch's purpose (the paper's Fig. 14/16 results, where patched
    TIMELY controls the queue better than original TIMELY, are only
    reproducible with a functional brake).
    """

    base: TimelyParams
    q_ref: float            #: reference queue q', packets
    beta_band: float = 0.008  #: decrease gain in the Eq. 29 middle branch
    weight_slope_halfwidth: float = 0.25  #: g range over which w ramps 0->1

    def __post_init__(self) -> None:
        _require_positive("q_ref", self.q_ref)
        _require_fraction("beta_band", self.beta_band)
        _require_positive("weight_slope_halfwidth",
                          self.weight_slope_halfwidth)

    def weight(self, gradient: float) -> float:
        """The paper's Eq. 30 weight function ``w(g)``.

        Linear ramp from 0 at ``g = -1/4`` to 1 at ``g = +1/4`` by
        default; clamped outside.
        """
        half = self.weight_slope_halfwidth
        if gradient <= -half:
            return 0.0
        if gradient >= half:
            return 1.0
        return gradient / (2.0 * half) + 0.5

    @property
    def fixed_point_queue(self) -> float:
        """Theorem 5 / Eq. 31: ``q* = N * delta * q' / (beta * C) + q'``."""
        b = self.base
        return (b.num_flows * b.delta * self.q_ref
                / (self.beta_band * b.capacity) + self.q_ref)

    def replace_base(self, **changes) -> "PatchedTimelyParams":
        """Return a copy with fields of the embedded base replaced."""
        return dataclasses.replace(self, base=self.base.replace(**changes))

    @classmethod
    def paper_default(cls,
                      capacity_gbps: float = 10.0,
                      num_flows: int = 2,
                      prop_delay_us: float = 4.0,
                      mtu_bytes: int = units.DEFAULT_MTU_BYTES,
                      ) -> "PatchedTimelyParams":
        """Section 4.3 defaults: TIMELY's, but beta=0.008 and Seg=16KB."""
        base = TimelyParams.paper_default(
            capacity_gbps=capacity_gbps,
            num_flows=num_flows,
            prop_delay_us=prop_delay_us,
            segment_kb=16.0,
            mtu_bytes=mtu_bytes,
        )
        return cls(base=base, q_ref=base.capacity * base.t_low)


@dataclass(frozen=True)
class DCTCPParams:
    """DCTCP baseline configuration ([2], the protocol DCQCN extends).

    DCTCP marks with a *step* profile: every packet departing a queue
    deeper than ``step_threshold`` packets is marked
    (:meth:`step_red` encodes that as a degenerate RED ramp).  The
    sender is window-based; see
    :class:`repro.sim.protocols.dctcp.DCTCPSender`.
    """

    g: float = 1.0 / 16.0           #: marked-fraction EWMA gain
    step_threshold: float = 65.0    #: marking threshold K, packets
    initial_window_packets: int = 10  #: TCP IW, MSS units
    mtu_bytes: int = units.DEFAULT_MTU_BYTES

    def __post_init__(self) -> None:
        _require_fraction("g", self.g)
        _require_positive("step_threshold", self.step_threshold)
        _require_positive("initial_window_packets",
                          self.initial_window_packets)
        _require_positive("mtu_bytes", self.mtu_bytes)

    def step_red(self) -> "REDParams":
        """The step-marking profile as a (degenerate) RED ramp."""
        return REDParams(kmin=self.step_threshold,
                         kmax=self.step_threshold * (1 + 1e-6),
                         pmax=1.0)


@dataclass(frozen=True)
class PIParams:
    """PI marking controller (Eq. 32): ``dp/dt = K1 de/dt + K2 e(t)``.

    ``e(t) = q(t) - q_ref`` is the queue error in packets.  For DCQCN the
    controller runs at the switch and replaces RED; for patched TIMELY it
    runs at the host on measured delay and replaces the
    ``(q - q')/q'`` feedback term.
    """

    q_ref: float            #: reference queue length, packets
    k1: float               #: proportional gain, on normalized de/dt
    k2: float               #: integral gain, on normalized e (1/s)
    p_min: float = 0.0      #: clamp for the marking variable
    p_max: float = 1.0

    def __post_init__(self) -> None:
        _require_positive("q_ref", self.q_ref)
        _require_nonnegative("k1", self.k1)
        _require_positive("k2", self.k2)
        if not 0.0 <= self.p_min < self.p_max <= 1.0:
            raise ValueError(
                f"require 0 <= p_min < p_max <= 1, got "
                f"[{self.p_min}, {self.p_max}]")

    @classmethod
    def for_dcqcn(cls, q_ref_kb: float,
                  mtu_bytes: int = units.DEFAULT_MTU_BYTES) -> "PIParams":
        """Gains for a switch-side PI marker driving DCQCN senders.

        DCQCN's steady marking probability is tiny (Eq. 14, ~1e-3), so
        the controller must move ``p`` slowly: gains are sized for a
        millisecond-scale integral response, empirically stable for
        N up to ~64 flows at 40 Gbps.
        """
        _require_positive("mtu_bytes", mtu_bytes)
        return cls(q_ref=units.kb_to_packets(q_ref_kb, mtu_bytes),
                   k1=1e-3, k2=0.02)

    @classmethod
    def for_timely(cls, q_ref_kb: float,
                   mtu_bytes: int = units.DEFAULT_MTU_BYTES) -> "PIParams":
        """Gains for host-side PI variables driving patched TIMELY.

        Patched TIMELY's equilibrium feedback is O(0.1-1) (``p* =
        delta / (beta R)``), so the integrator can be proportionally
        faster than the DCQCN marker.
        """
        _require_positive("mtu_bytes", mtu_bytes)
        return cls(q_ref=units.kb_to_packets(q_ref_kb, mtu_bytes),
                   k1=1e-2, k2=1.0)
