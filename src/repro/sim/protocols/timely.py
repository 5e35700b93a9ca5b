"""TIMELY endpoint protocol -- Section 4 / Algorithm 1 of the paper.

The receiver ACKs once per completed segment (``Seg`` bytes, the
"completion event" of [21]), echoing the transmit timestamp of the
packet that completed the segment; the sender turns each ACK into an
RTT sample and runs Algorithm 1.

Two pacing modes reproduce the paper's Section 4.2 discussion:

* ``"packet"``: hardware-rate-limiter style, one MTU every
  ``MTU / rate`` -- the mode the fluid model describes.
* ``"burst"``: the actual TIMELY implementation strategy -- whole
  segments handed to the NIC back-to-back (serialized at line rate)
  with inter-segment gaps stretching the average to ``rate``.  The
  burstiness injects the "noise" that incidentally de-correlates
  flows (Fig. 10), at the cost of queue spikes; with 64 KB segments
  an incast of initial bursts produces the giant RTT sample and rate
  collapse of Fig. 10(b).

Rate updates are gated to at most one per ``D_minRTT``, TIMELY's
update-frequency cap (Eq. 23's ``max(Seg/R, D_minRTT)``).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.params import TimelyParams
from repro.sim.engine import Simulator
from repro.sim.flows import Flow
from repro.sim.node import Host
from repro.sim.packet import Packet
from repro.sim.protocols.base import BaseReceiver, RateBasedSender

#: Supported pacing strategies.
PACING_MODES = ("packet", "burst")


class TimelySender(RateBasedSender):
    """Algorithm 1 rate computation driven by per-segment RTT samples."""

    def __init__(self, sim: Simulator, host: Host, flow: Flow,
                 params: TimelyParams,
                 line_rate: Optional[float] = None,
                 initial_rate: Optional[float] = None,
                 pacing: str = "packet",
                 gradient_clamp: Optional[float] = 0.25,
                 burst_rate_fraction: float = 1.0,
                 rtt_outlier_factor: Optional[float] = None):
        if pacing not in PACING_MODES:
            raise ValueError(
                f"pacing must be one of {PACING_MODES}, got {pacing!r}")
        if gradient_clamp is not None and gradient_clamp <= 0:
            raise ValueError(
                f"gradient_clamp must be positive or None, got "
                f"{gradient_clamp}")
        if not 0.0 < burst_rate_fraction <= 1.0:
            raise ValueError(
                f"burst_rate_fraction must be in (0, 1], got "
                f"{burst_rate_fraction}")
        if rtt_outlier_factor is not None and rtt_outlier_factor <= 1.0:
            raise ValueError(
                f"rtt_outlier_factor must exceed 1 or be None, got "
                f"{rtt_outlier_factor}")
        self.params = params
        mtu = params.mtu_bytes
        line = line_rate if line_rate is not None \
            else params.capacity * mtu
        if initial_rate is None:
            # A new flow starts at C/(N+1) with N flows already active
            # at this sender (Section 4).
            initial_rate = line / (host.active_senders + 1)
        # TIMELY enforces a minimum rate (one additive step's worth):
        # updates are ACK-clocked, so a flow cut to nothing would stop
        # producing the RTT samples it needs to ever recover.
        super().__init__(sim, host, flow, mtu, initial_rate, line,
                         min_rate=params.delta * mtu)
        self.pacing = pacing
        self.segment_bytes = params.segment * mtu
        self.prev_rtt: Optional[float] = None
        self.rtt_diff = 0.0
        self._last_update: Optional[float] = None
        self.rtt_samples = 0
        #: Consecutive negative-gradient completion events; five in a
        #: row enter hyper-active increase (HAI) per [21].
        self._negative_gradient_streak = 0
        #: HAI threshold and step multiplier from [21].
        self.hai_threshold = 5
        #: Normalized-gradient clamp.  One RTT sample polluted by a
        #: transient burst can carry a gradient of several minRTTs;
        #: unclamped, ``1 - beta*g`` goes hugely negative and one noisy
        #: sample floors the rate.  The +/-1/4 range mirrors the span
        #: over which the paper's own weight function (Eq. 30) treats
        #: gradients as informative.  None disables clamping.
        self.gradient_clamp = gradient_clamp
        #: Fraction of line rate used *within* a burst.  The TIMELY
        #: implementation "sends bursts at less than line rate"
        #: (Section 5 of [21], cited in the paper's footnote 6) to
        #: soften the incast problem; 1.0 is full line-rate bursts.
        self.burst_rate_fraction = burst_rate_fraction
        self._burst_start = 0.0
        self._burst_emitted = 0.0
        #: Graceful degradation under faulty feedback: with a factor F,
        #: an RTT sample exceeding F times the running EWMA baseline is
        #: rejected outright -- it is far likelier to be a delayed or
        #: duplicated feedback packet (fault injection, link flap
        #: backlog release) than a real congestion signal, and TIMELY's
        #: gradient math has no defence against such a spike beyond the
        #: clamp.  Rejected samples update nothing; the baseline learns
        #: only from accepted samples.  None disables rejection
        #: (fault-free behaviour untouched).
        self.rtt_outlier_factor = rtt_outlier_factor
        self._rtt_baseline: Optional[float] = None
        self.rtt_outliers_rejected = 0

    # -- pacing ---------------------------------------------------------------

    def _pace(self) -> None:
        if self.pacing == "packet":
            super()._pace()
            return
        if self._finished_sending:
            return
        # Burst mode: emit a full segment as one burst.  At
        # burst_rate_fraction = 1 the packets go to the NIC
        # back-to-back (serialized at line rate); below 1 they are
        # spaced to the configured intra-burst rate, the [21]
        # mitigation for incast RTT spikes.
        self._burst_start = self.sim.now
        self._burst_emitted = 0.0
        self._burst_step()

    def _burst_step(self) -> None:
        if self._finished_sending:
            return
        self._emit_packet()
        self._burst_emitted += self.mtu_bytes
        if self.flow.all_bytes_sent():
            self._finished_sending = True
            self.on_all_sent()
            return
        if self._burst_emitted < self.segment_bytes:
            if self.burst_rate_fraction >= 1.0:
                self._burst_step()
                return
            intra_gap = self.mtu_bytes / (self.burst_rate_fraction
                                          * self.line_rate)
            self._next_emission = self.sim.schedule(intra_gap,
                                                    self._burst_step)
            return
        # Inter-burst spacing stretches the average to the target rate,
        # measured from the start of this burst.
        next_burst = self._burst_start + self._burst_emitted / self._rate
        delay = max(next_burst - self.sim.now, 0.0)
        self._next_emission = self.sim.schedule(delay, self._pace)

    # -- Algorithm 1 ----------------------------------------------------------

    def on_ack(self, packet: Packet) -> None:
        if packet.echo_time is None:
            raise ValueError("TIMELY ACK without an echoed timestamp")
        rtt = self.sim.now - packet.echo_time
        self.rtt_samples += 1
        if self.ledger is not None:
            self.ledger.on_control(self.flow.flow_id, "ack", 1,
                                   self.sim.now)
        if self._reject_outlier(rtt):
            return
        if self._last_update is not None and \
                self.sim.now - self._last_update < self.params.min_rtt:
            return
        self._last_update = self.sim.now
        self.update_rate(rtt)

    def _reject_outlier(self, rtt: float) -> bool:
        """Outlier rejection against the EWMA baseline (if enabled)."""
        if self.rtt_outlier_factor is None:
            return False
        if self._rtt_baseline is not None and \
                rtt > self.rtt_outlier_factor * self._rtt_baseline:
            self.rtt_outliers_rejected += 1
            return True
        a = self.params.ewma_alpha
        self._rtt_baseline = rtt if self._rtt_baseline is None \
            else (1.0 - a) * self._rtt_baseline + a * rtt
        return False

    def update_rate(self, rtt: float) -> None:
        """Algorithm 1, lines 1-12."""
        p = self.params
        if self.prev_rtt is None:
            new_rtt_diff = 0.0
        else:
            new_rtt_diff = rtt - self.prev_rtt
        self.prev_rtt = rtt
        self.rtt_diff = (1.0 - p.ewma_alpha) * self.rtt_diff \
            + p.ewma_alpha * new_rtt_diff
        gradient = self.rtt_diff / p.min_rtt
        if self.gradient_clamp is not None:
            gradient = min(max(gradient, -self.gradient_clamp),
                           self.gradient_clamp)
        delta_bytes = p.delta * p.mtu_bytes

        if rtt < p.t_low:
            # Plain additive increase; HAI never applies below T_low
            # (footnote 5 of the paper).
            self._negative_gradient_streak = 0
            self.rate = self._rate + delta_bytes
        elif rtt > p.t_high:
            self._negative_gradient_streak = 0
            self.rate = self._rate * (1.0 - p.beta * (1.0 - p.t_high / rtt))
        else:
            self.rate = self.gradient_band_rate(rtt, gradient, delta_bytes)

    def gradient_band_rate(self, rtt: float, gradient: float,
                           delta_bytes: float) -> float:
        """Lines 9-12 of Algorithm 1 (overridden by patched TIMELY).

        The multiplicative factor is floored at ``1 - beta``: a single
        sample with a normalized gradient above 1 (easy to produce with
        64 KB bursts) must not cut deeper than the ``T_high`` branch's
        worst case, or one incast spike zeroes the rate outright.
        """
        if gradient <= 0.0:
            self._negative_gradient_streak += 1
            if self._negative_gradient_streak >= self.hai_threshold:
                # Hyper-active increase: five completion events of
                # falling RTT switch to N * delta steps ([21], Alg. 1).
                return self._rate + self.hai_threshold * delta_bytes
            return self._rate + delta_bytes
        self._negative_gradient_streak = 0
        factor = max(1.0 - self.params.beta * gradient,
                     1.0 - self.params.beta)
        return self._rate * factor


class TimelyReceiver(BaseReceiver):
    """Per-segment completion ACKs carrying the echoed timestamp."""

    def __init__(self, sim: Simulator, host: Host, flow: Flow,
                 params: TimelyParams,
                 on_complete: Optional[Callable[[Flow], None]] = None):
        super().__init__(sim, host, flow, on_complete=on_complete)
        self.params = params
        self.segment_bytes = params.segment * params.mtu_bytes
        self._bytes_since_ack = 0
        self.acks_sent = 0

    def handle_data(self, packet: Packet) -> None:
        self._bytes_since_ack += packet.size_bytes
        if self._bytes_since_ack >= self.segment_bytes:
            self._send_ack(packet)

    def handle_completion(self, last_packet: Packet) -> None:
        # Flush a final ACK so short flows (< one segment) still
        # produce an RTT sample for the sender.
        if self._bytes_since_ack > 0:
            self._send_ack(last_packet)

    def _send_ack(self, packet: Packet) -> None:
        self._bytes_since_ack = 0
        self.acks_sent += 1
        self.send_control("ack", echo_time=packet.sent_time,
                          acked_bytes=self.flow.bytes_delivered)
