"""TCP NewReno model.

This is the unmodified guest-VM stack that Clove leaves untouched: byte
stream, slow start, congestion avoidance, fast retransmit/recovery with
NewReno partial-ACK handling, RTO with exponential backoff, and standard
one-mark-per-window ECN response (the sender reacts to ECE on ACKs; whether
ECE ever appears is decided by the hypervisor, which masks underlay marks
unless every path is congested).

Simplifications (documented deviations):

* Connections are pre-established (the paper uses long-lived persistent
  connections; handshake latency is not part of any reported metric).
* Receive window is unbounded (testbed machines had ample socket buffers).
* No SACK — NewReno recovery only, matching the NS2 ``Agent/TCP/Newreno``
  the paper's simulations used.
"""

from __future__ import annotations

import bisect
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple, TYPE_CHECKING

from repro.net.packet import FlowKey, MSS, Packet, make_ack_packet, make_data_packet
from repro.sim.engine import Event, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.hypervisor.host import Host

#: flag characters used in Packet.flags
FLAG_ECE = "E"   # ECN-Echo (receiver -> sender, or injected by hypervisor)
FLAG_CWR = "W"   # Congestion Window Reduced (sender -> receiver)


class TcpSender:
    """Sending half of a TCP connection.

    The application pushes byte counts with :meth:`send`; delivery progress
    is observable on the paired :class:`TcpReceiver`.
    """

    def __init__(
        self,
        sim: Simulator,
        host: "Host",
        flow: FlowKey,
        mss: int = MSS,
        init_cwnd_segments: int = 10,
        max_cwnd_segments: int = 256,
        min_rto: float = 0.01,
        max_rto: float = 2.0,
        ecn_capable: bool = True,
        early_retransmit: bool = True,
        tail_loss_probe: bool = True,
        sack: bool = True,
        timestamps: bool = True,
    ) -> None:
        self.sim = sim
        self.host = host
        self.flow = flow
        self.mss = mss
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.ecn_capable = ecn_capable
        #: RFC 5827 early retransmit: lower the dupack threshold when the
        #: flight is too small to ever produce three duplicate ACKs.
        self.early_retransmit = early_retransmit
        #: Linux-style tail loss probe: re-send the head-of-line segment
        #: after ~2 SRTT of ACK silence instead of waiting out a full RTO.
        self.tail_loss_probe = tail_loss_probe
        #: selective acknowledgements: the receiver reports out-of-order
        #: blocks and the sender retransmits across holes instead of one
        #: hole per RTT (all modern guest stacks have this on).
        self.sack = sack
        #: TCP timestamps: ACKs echo the triggering packet's send time, so
        #: RTT samples measure the actual network path.  Without them,
        #: cumulative-ACK sampling folds hole-repair latency into SRTT
        #: during recovery and the RTO snowballs.
        self.timestamps = timestamps
        #: merged SACKed intervals above snd_una
        self._sacked: List[Tuple[int, int]] = []
        #: retransmission cursor within the current recovery episode
        self._recovery_cursor: int = 0

        # Sequence state (byte offsets into the app stream).
        self.snd_una = 0          # oldest unacknowledged byte
        self.snd_nxt = 0          # next byte to send
        self.app_bytes = 0        # total bytes the app has asked us to send

        # Congestion control.
        self.cwnd = float(init_cwnd_segments * mss)
        #: socket-buffer / TSQ-style bound on the window: real stacks do not
        #: let one flow build multi-megabyte self-queues at the NIC
        self.max_cwnd = float(max_cwnd_segments * mss)
        self.ssthresh = float(1 << 30)
        self.dupacks = 0
        self.in_recovery = False
        self.recover_point = 0    # NewReno: snd_nxt when loss was detected
        self.cwr_pending = False  # set CWR flag on next data segment
        self.ece_reacted_at = 0   # snd_una value at last ECN cwnd reduction

        # RTT estimation / RTO.
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = 3 * min_rto
        self.backoff = 1
        # Retransmission timers are deadline-based: every new ACK just moves
        # ``_rto_deadline`` / ``_tlp_deadline`` forward, and the (single)
        # scheduled event re-schedules itself toward the live deadline when
        # it fires early.  Observable fire times are identical to the
        # classic cancel-and-rearm scheme, but the per-ACK cost drops from
        # two Event allocations + heap pushes to two float stores.
        self._rto_event: Optional[Event] = None
        self._tlp_event: Optional[Event] = None
        self._rto_deadline: Optional[float] = None
        self._tlp_deadline: Optional[float] = None
        self._tlp_pending = False
        self.tlp_probes = 0
        # (seq_end, sent_time) samples for non-retransmitted segments; only
        # kept when timestamps are off (ACK timestamps sample RTT instead).
        self._rtt_samples: Optional[Deque[Tuple[int, float]]] = (
            None if timestamps else deque())

        # Counters.
        self.fast_retransmits = 0
        self.timeouts = 0
        self.ecn_reductions = 0
        self.packets_sent = 0
        self.bytes_sent = 0

        #: called when snd_una reaches app_bytes (all data acked)
        self.on_all_acked: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------
    def send(self, nbytes: int) -> None:
        """Queue ``nbytes`` more application bytes for transmission."""
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        self.app_bytes += nbytes
        self._try_send()

    @property
    def flight_size(self) -> int:
        return self.snd_nxt - self.snd_una

    @property
    def done(self) -> bool:
        return self.app_bytes > 0 and self.snd_una >= self.app_bytes

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def _try_send(self) -> None:
        """Send as many new segments as cwnd allows."""
        limit = min(self.app_bytes, self.snd_una + int(self.cwnd))
        while self.snd_nxt < limit:
            payload = min(self.mss, limit - self.snd_nxt)
            # Avoid a runt segment when more data will fit later.
            if payload < self.mss and self.snd_nxt + payload < self.app_bytes:
                if self.flight_size > 0:
                    break  # wait for more cwnd instead of sending a runt
            self._transmit(self.snd_nxt, payload, retransmit=False)
            self.snd_nxt += payload
        self._arm_rto()

    def _transmit(self, seq: int, payload: int, retransmit: bool) -> None:
        flags = ""
        if self.cwr_pending:
            flags += FLAG_CWR
            self.cwr_pending = False
        packet = make_data_packet(self.flow, seq, payload, self.sim.now, flags)
        self._decorate_packet(packet)
        samples = self._rtt_samples
        if samples is not None:
            if not retransmit:
                samples.append((seq + payload, self.sim.now))
            else:
                # Karn's rule: the ACK for a retransmitted range is
                # ambiguous (original or retransmission?), so its sample
                # must not feed the RTT estimator — otherwise recovery time
                # leaks into SRTT and the RTO snowballs.
                end = seq + payload
                self._rtt_samples = deque((e, t) for (e, t) in samples if e > end)
        self.packets_sent += 1
        self.bytes_sent += payload
        self.host.send_from_guest(packet)

    def _decorate_packet(self, packet: Packet) -> None:
        """Hook for subclasses to stamp extra headers (MPTCP DSN, ...)."""

    def _arm_rto(self) -> None:
        """Ensure the RTO (and TLP) deadlines are set; keep earlier ones."""
        if self.flight_size <= 0:
            self._cancel_rto()
            return
        if self._rto_deadline is None:
            deadline = self.sim.now + self.rto * self.backoff
            self._rto_deadline = deadline
            event = self._rto_event
            if event is None or event.cancelled:
                self._rto_event = self.sim.at(deadline, self._on_rto)
            elif event.time > deadline:
                # The pending event would fire too late (backoff was reset);
                # this is the only case that still pays a cancel+rearm.
                event.cancel()
                self._rto_event = self.sim.at(deadline, self._on_rto)
            # else: the pending event fires at/before the deadline and will
            # chase it forward from _on_rto.
        self._arm_tlp()

    def _restart_rto(self) -> None:
        self._rto_deadline = None
        self._tlp_deadline = None
        self._arm_rto()

    def _cancel_rto(self) -> None:
        self._rto_deadline = None
        self._tlp_deadline = None
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None
        if self._tlp_event is not None:
            self._tlp_event.cancel()
            self._tlp_event = None

    def _arm_tlp(self) -> None:
        if not self.tail_loss_probe or self.srtt is None or self.in_recovery:
            return
        if self._tlp_deadline is None:
            pto = min(max(2 * self.srtt, 1e-4), self.rto * self.backoff * 0.9)
            deadline = self.sim.now + pto
            self._tlp_deadline = deadline
            event = self._tlp_event
            if event is None or event.cancelled:
                self._tlp_event = self.sim.at(deadline, self._on_tlp)
            elif event.time > deadline:
                event.cancel()
                self._tlp_event = self.sim.at(deadline, self._on_tlp)

    def _on_tlp(self) -> None:
        """Probe the tail: re-send the head-of-line segment, no cwnd change.

        If data really was lost, the probe's ACK (or the dupacks it causes)
        drives normal fast-retransmit recovery at ~2 SRTT instead of a full
        RTO with window collapse.
        """
        deadline = self._tlp_deadline
        if deadline is None:
            # Disarmed since this event was scheduled.
            self._tlp_event = None
            return
        if self.sim.now < deadline:
            # ACKs pushed the probe time out; chase the live deadline.
            self._tlp_event = self.sim.at(deadline, self._on_tlp)
            return
        self._tlp_event = None
        self._tlp_deadline = None
        if self.flight_size <= 0 or self.in_recovery:
            return
        self.tlp_probes += 1
        self._tlp_pending = True
        self._transmit(
            self.snd_una,
            min(self.mss, self.snd_nxt - self.snd_una),
            retransmit=True,
        )
        # Do not rearm immediately: the next ACK (via _restart_rto) will.

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet) -> None:
        """Handle an incoming (inner) ACK segment."""
        ack = packet.ack
        if ack < 0:
            return
        if self.ecn_capable and FLAG_ECE in packet.flags:
            self._react_to_ecn()
        if self.sack and packet.sack is not None:
            self._merge_sack(packet.sack)
        if self.timestamps and packet.tsecr is not None:
            self._record_rtt(self.sim.now - packet.tsecr)
        if ack > self.snd_una:
            self._on_new_ack(ack)
        elif ack == self.snd_una and self.snd_nxt > ack:
            self._on_dupack()

    # ------------------------------------------------------------------
    # SACK scoreboard
    # ------------------------------------------------------------------
    def _merge_sack(self, blocks) -> None:
        intervals = self._sacked
        for start, end in blocks:
            if end <= self.snd_una:
                continue
            intervals.append((max(start, self.snd_una), end))
        intervals.sort()
        merged: List[Tuple[int, int]] = []
        for s, e in intervals:
            if merged and s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], e))
            else:
                merged.append((s, e))
        self._sacked = merged

    def _advance_sack(self) -> None:
        """Drop SACK state below the new snd_una."""
        self._sacked = [(s, e) for s, e in self._sacked if e > self.snd_una]

    def _next_hole(self, from_seq: int) -> Optional[Tuple[int, int]]:
        """The first un-SACKed range at/after ``from_seq`` below the highest
        SACKed byte (i.e. a range we have SACK evidence is lost)."""
        if not self._sacked:
            return None
        highest = self._sacked[-1][1]
        cursor = max(from_seq, self.snd_una)
        for s, e in self._sacked:
            if cursor < s:
                return (cursor, min(s, cursor + self.mss))
            cursor = max(cursor, e)
        if cursor < highest:
            return (cursor, min(highest, cursor + self.mss))
        return None

    def _on_new_ack(self, ack: int) -> None:
        acked = ack - self.snd_una
        self.snd_una = ack
        self.backoff = 1
        if self._rtt_samples is not None:
            self._sample_rtt(ack)
        self._advance_sack()

        if self._tlp_pending:
            # The ACK for a tail-loss probe arrived.  If un-ACKed data
            # remains with no SACK evidence of later delivery, the rest of
            # the tail was lost too: enter recovery instead of crawling one
            # probe per PTO (Linux's TLP loss detection).
            self._tlp_pending = False
            if self.flight_size > 0 and not self._sacked and not self.in_recovery:
                self._enter_recovery()
                return

        if self.in_recovery:
            if ack >= self.recover_point:
                # Full ACK: leave recovery.
                self.in_recovery = False
                self.dupacks = 0
                self.cwnd = self.ssthresh
            else:
                # Partial ACK: retransmit the next hole, stay in recovery.
                self._retransmit_hole()
                self.cwnd = max(self.cwnd - acked + self.mss, float(self.mss))
                self._restart_rto()
                return
        else:
            self.dupacks = 0
            self._increase_cwnd(acked)

        if self.done:
            self._cancel_rto()
            if self.on_all_acked is not None:
                self.on_all_acked()
            return
        self._restart_rto()
        self._try_send()

    def _increase_cwnd(self, acked: int) -> None:
        """Window growth on a new ACK; overridable (MPTCP couples this)."""
        if self.cwnd < self.ssthresh:
            self.cwnd += acked                         # slow start
        else:
            self.cwnd += self.mss * acked / self.cwnd  # congestion avoidance
        if self.cwnd > self.max_cwnd:
            self.cwnd = self.max_cwnd

    def _on_dupack(self) -> None:
        self.dupacks += 1
        if self.in_recovery:
            # Each dupack signals a delivery: retransmit another hole if the
            # scoreboard shows one, else inflate so new data clocks out.
            if self.sack and self._next_hole(self._recovery_cursor) is not None:
                self._retransmit_hole()
            else:
                self.cwnd += self.mss
                self._try_send()
            return
        threshold = 3
        if self.early_retransmit:
            # RFC 5827: with fewer than four segments outstanding, three
            # duplicate ACKs can never arrive — lower the threshold.
            outstanding = max(1, -(-self.flight_size // self.mss))  # ceil
            if outstanding < 4 and self.snd_nxt >= self.app_bytes:
                threshold = min(3, max(1, outstanding - 1))
        if self.dupacks >= threshold:
            self._enter_recovery()
        elif self.sack and not self.in_recovery:
            pass  # wait for the threshold; scoreboard already updated

    def _enter_recovery(self) -> None:
        self.in_recovery = True
        self.recover_point = self.snd_nxt
        self.ssthresh = max(self.flight_size / 2.0, 2.0 * self.mss)
        self.cwnd = self.ssthresh + 3 * self.mss
        self.fast_retransmits += 1
        telemetry = getattr(self.host, "telemetry", None)
        if telemetry is not None:
            telemetry.events.emit(
                "tcp.fast_retransmit", self.sim.now,
                src=self.flow.src_ip, dst=self.flow.dst_ip,
                sport=self.flow.src_port, una=self.snd_una,
            )
            trace = telemetry.trace
            if trace.enabled:
                trace.instant("tcp", "fast_retransmit", self.sim.now,
                              parent=trace.current_flow(self.flow),
                              una=self.snd_una)
        self._recovery_cursor = self.snd_una
        self._retransmit_hole()
        self._restart_rto()

    def _retransmit_hole(self) -> None:
        """Retransmit the most urgent missing segment.

        With SACK evidence, that is the first un-SACKed hole we have not
        retransmitted this recovery; otherwise (pure NewReno) it is the
        segment at ``snd_una``.
        """
        if self.sack:
            hole = self._next_hole(self._recovery_cursor)
            if hole is not None:
                start, end = hole
                self._transmit(start, end - start, retransmit=True)
                self._recovery_cursor = end
                return
            if self._recovery_cursor > self.snd_una:
                return  # everything below the highest SACK was retransmitted
        self._transmit(
            self.snd_una,
            min(self.mss, self.snd_nxt - self.snd_una),
            retransmit=True,
        )
        self._recovery_cursor = self.snd_una + self.mss

    def _react_to_ecn(self) -> None:
        """Classic ECN: at most one cwnd reduction per window of data."""
        if self.snd_una < self.ece_reacted_at:
            return
        self.ece_reacted_at = self.snd_nxt
        self.ssthresh = max(self.flight_size / 2.0, 2.0 * self.mss)
        self.cwnd = max(self.ssthresh, 2.0 * self.mss)
        self.cwr_pending = True
        self.ecn_reductions += 1
        telemetry = getattr(self.host, "telemetry", None)
        if telemetry is not None and telemetry.trace.enabled:
            telemetry.trace.instant(
                "tcp", "ecn_reduction", self.sim.now,
                parent=telemetry.trace.current_flow(self.flow),
                cwnd=round(self.cwnd),
            )

    def _on_rto(self) -> None:
        deadline = self._rto_deadline
        if deadline is None:
            # Disarmed since this event was scheduled.
            self._rto_event = None
            return
        if self.sim.now < deadline:
            # ACKs restarted the timer since this event was scheduled;
            # chase the live deadline instead of cancelling per ACK.
            self._rto_event = self.sim.at(deadline, self._on_rto)
            return
        self._rto_event = None
        self._rto_deadline = None
        if self.flight_size <= 0:
            return
        self.timeouts += 1
        telemetry = getattr(self.host, "telemetry", None)
        if telemetry is not None:
            telemetry.events.emit(
                "tcp.timeout", self.sim.now,
                src=self.flow.src_ip, dst=self.flow.dst_ip,
                sport=self.flow.src_port,
                rto=self.rto * self.backoff, una=self.snd_una,
            )
            trace = telemetry.trace
            if trace.enabled:
                trace.instant("tcp", "timeout", self.sim.now,
                              parent=trace.current_flow(self.flow),
                              rto=self.rto * self.backoff, una=self.snd_una)
        self.ssthresh = max(self.flight_size / 2.0, 2.0 * self.mss)
        self.cwnd = float(self.mss)
        self.in_recovery = False
        self.dupacks = 0
        self.backoff = min(self.backoff * 2, 64)
        if self._rtt_samples is not None:
            # Karn: invalidate outstanding samples.
            self._rtt_samples.clear()
        self._transmit(
            self.snd_una,
            min(self.mss, self.snd_nxt - self.snd_una),
            retransmit=True,
        )
        self._arm_rto()

    # ------------------------------------------------------------------
    # RTT estimation
    # ------------------------------------------------------------------
    def _sample_rtt(self, ack: int) -> None:
        """Cumulative-ACK sampling, used only when timestamps are off."""
        sample: Optional[float] = None
        samples = self._rtt_samples
        while samples and samples[0][0] <= ack:
            _seq_end, sent_at = samples.popleft()
            sample = self.sim.now - sent_at
        if sample is not None:
            self._record_rtt(sample)

    def _record_rtt(self, sample: float) -> None:
        """Fold one RTT sample into SRTT/RTTVAR (RFC 6298)."""
        if sample < 0:
            return
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self.rto = min(self.max_rto, max(self.min_rto, self.srtt + 4 * self.rttvar))


class TcpReceiver:
    """Receiving half: cumulative ACKs, out-of-order reassembly, thresholds.

    ``add_threshold(offset, cb)`` invokes ``cb`` the instant the in-order
    byte stream reaches ``offset`` — the metric collector uses this to time
    flow completions on persistent connections.
    """

    def __init__(self, sim: Simulator, host: "Host", flow: FlowKey) -> None:
        self.sim = sim
        self.host = host
        self.flow = flow                      # the *forward* (data) 5-tuple
        self.reverse = flow.reversed()
        self.rcv_nxt = 0
        #: sorted disjoint out-of-order intervals [(start, end), ...]
        self._ooo: List[Tuple[int, int]] = []
        self._thresholds: List[Tuple[int, Callable[[], None]]] = []
        self.ece_latched = False              # classic ECN receiver latch
        self._tsecr: Optional[float] = None   # timestamp to echo on ACKs
        self.packets_received = 0
        self.ooo_packets = 0
        self.bytes_delivered = 0

    # ------------------------------------------------------------------
    def add_threshold(self, offset: int, callback: Callable[[], None]) -> None:
        """Invoke ``callback`` once the in-order stream reaches ``offset``."""
        index = bisect.bisect_left([t[0] for t in self._thresholds], offset)
        self._thresholds.insert(index, (offset, callback))
        self._fire_thresholds()

    def _fire_thresholds(self) -> None:
        while self._thresholds and self._thresholds[0][0] <= self.rcv_nxt:
            _, callback = self._thresholds.pop(0)
            callback()

    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet) -> None:
        """Handle an incoming (inner) data segment; emit a cumulative ACK."""
        if packet.payload_bytes <= 0:
            return
        self.packets_received += 1
        self._tsecr = packet.created_at  # timestamp echo for the next ACK
        if packet.ce:
            # In Clove deployments the hypervisor strips CE before delivery,
            # so this fires only in non-overlay / DCTCP configurations.
            self.ece_latched = True
        if FLAG_CWR in packet.flags:
            self.ece_latched = False
        start, end = packet.seq, packet.seq + packet.payload_bytes
        if end > self.rcv_nxt:
            if start <= self.rcv_nxt:
                self.rcv_nxt = end
                self._drain_ooo()
            else:
                self.ooo_packets += 1
                self._insert_ooo(start, end)
        self.bytes_delivered = self.rcv_nxt
        self._fire_thresholds()
        self._send_ack()

    def _insert_ooo(self, start: int, end: int) -> None:
        intervals = self._ooo
        index = bisect.bisect_left(intervals, (start, end))
        intervals.insert(index, (start, end))
        # Merge overlapping/adjacent intervals.
        merged: List[Tuple[int, int]] = []
        for s, e in intervals:
            if merged and s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], e))
            else:
                merged.append((s, e))
        self._ooo = merged

    def _drain_ooo(self) -> None:
        while self._ooo and self._ooo[0][0] <= self.rcv_nxt:
            _, end = self._ooo.pop(0)
            if end > self.rcv_nxt:
                self.rcv_nxt = end

    def _send_ack(self) -> None:
        flags = FLAG_ECE if self.ece_latched else ""
        ack = make_ack_packet(self.reverse, self.rcv_nxt, self.sim.now, flags)
        if self._ooo:
            # SACK: report up to three out-of-order blocks, most recent info
            # is implicit in the intervals themselves.
            ack.sack = self._ooo[:3]
        ack.tsecr = self._tsecr
        self.host.send_from_guest(ack)


class Connection:
    """A sender/receiver pair over a fixed 5-tuple, plus flow bookkeeping."""

    def __init__(self, sender: TcpSender, receiver: TcpReceiver) -> None:
        self.sender = sender
        self.receiver = receiver
        self._offset = 0

    def start_flow(self, nbytes: int, on_complete: Callable[[], None]) -> None:
        """Send ``nbytes`` as one application 'job' on the byte stream.

        ``on_complete`` fires when the *receiver* has the full job in order
        (the paper's flow-completion event).
        """
        self._offset += nbytes
        self.receiver.add_threshold(self._offset, on_complete)
        self.sender.send(nbytes)


def open_connection(
    src_host: "Host",
    dst_host: "Host",
    src_port: int,
    dst_port: int,
    **tcp_kwargs,
) -> Connection:
    """Create a pre-established TCP connection between two hosts."""
    flow = FlowKey(src_host.ip, dst_host.ip, src_port, dst_port)
    sender = TcpSender(src_host.sim, src_host, flow, **tcp_kwargs)
    receiver = TcpReceiver(dst_host.sim, dst_host, flow)
    # Demux: data arrives at dst keyed by the forward tuple; ACKs arrive at
    # src keyed by the reverse tuple.
    dst_host.register_endpoint(flow, receiver)
    # Under the very key object the receiver stamps on its ACKs, so the
    # demux lookup hits by identity.
    src_host.register_endpoint(receiver.reverse, sender)
    return Connection(sender, receiver)
