"""MPTCP model: N subflows with LIA-coupled congestion control.

Models the properties the paper attributes to MPTCP v0.89:

* a fixed number of subflows per connection, each with a distinct inner
  5-tuple, so ECMP may hash several subflows onto the same path
  (hash-collision risk the paper calls out);
* the subflow-to-path mapping is *static* for the connection's lifetime —
  there is no flowlet-style re-routing, which is what hurts MPTCP's 99th
  percentile in the paper's Figure 5c;
* the Linked-Increases Algorithm (LIA, RFC 6356) couples the additive
  increase across subflows while slow start and loss recovery stay
  per-subflow — the simultaneous slow starts are what make MPTCP bursty
  under incast (Figure 7);
* data is scheduled onto subflows on demand (lowest-RTT subflow with cwnd
  space first) and reassembled by data sequence number (DSN) at the
  receiver.

A segment once mapped to a subflow is only ever retransmitted on that same
subflow (no opportunistic reinjection), matching the stock v0.89 scheduler's
behaviour that the paper observed.
"""

from __future__ import annotations

import bisect
from typing import Callable, List, Optional, Tuple, TYPE_CHECKING

from repro.net.packet import FlowKey, MSS, Packet
from repro.sim.engine import Simulator
from repro.transport.tcp import TcpReceiver, TcpSender

if TYPE_CHECKING:  # pragma: no cover
    from repro.hypervisor.host import Host


class MptcpSubflowSender(TcpSender):
    """One subflow: a TCP sender whose byte stream is fed by the scheduler."""

    def __init__(self, connection: "MptcpConnection", subflow_id: int, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.connection = connection
        self.subflow_id = subflow_id
        #: (subflow_seq_start, dsn_start, length) in subflow-seq order.
        self._mappings: List[Tuple[int, int, int]] = []

    # -- scheduling hooks ------------------------------------------------
    def _try_send(self) -> None:
        self.connection.refill(self)
        super()._try_send()

    def assign(self, dsn: int, length: int) -> None:
        """Scheduler grants this subflow ``length`` bytes starting at ``dsn``."""
        self._mappings.append((self.app_bytes, dsn, length))
        self.app_bytes += length

    def _decorate_packet(self, packet: Packet) -> None:
        packet.subflow_id = self.subflow_id
        packet.dsn = self._dsn_for(packet.seq)
        # A segment may span several scheduler mappings whose DSN ranges are
        # NOT contiguous (chunks interleave across subflows); carry the
        # explicit span list so the receiver credits the right data ranges.
        if packet.payload_bytes > 0:
            packet.meta["dsn_spans"] = self._spans_for(packet.seq, packet.payload_bytes)

    def _dsn_for(self, seq: int) -> int:
        index = bisect.bisect_right([m[0] for m in self._mappings], seq) - 1
        if index < 0:
            raise KeyError(f"no DSN mapping for subflow seq {seq}")
        sf_start, dsn_start, _length = self._mappings[index]
        return dsn_start + (seq - sf_start)

    def _spans_for(self, seq: int, length: int) -> List[Tuple[int, int]]:
        """(dsn, length) spans covering subflow range [seq, seq+length)."""
        spans: List[Tuple[int, int]] = []
        index = bisect.bisect_right([m[0] for m in self._mappings], seq) - 1
        if index < 0:
            raise KeyError(f"no DSN mapping for subflow seq {seq}")
        remaining = length
        cursor = seq
        while remaining > 0 and index < len(self._mappings):
            sf_start, dsn_start, map_len = self._mappings[index]
            offset = cursor - sf_start
            take = min(remaining, map_len - offset)
            if take <= 0:
                break
            spans.append((dsn_start + offset, take))
            cursor += take
            remaining -= take
            index += 1
        return spans

    # -- LIA coupled increase ---------------------------------------------
    def _increase_cwnd(self, acked: int) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd = min(self.cwnd + acked, self.max_cwnd)  # per-subflow slow start
            return
        alpha = self.connection.lia_alpha()
        total = self.connection.total_cwnd()
        coupled = alpha * acked * self.mss / total if total > 0 else 0.0
        uncoupled = acked * self.mss / self.cwnd
        self.cwnd = min(self.cwnd + min(coupled, uncoupled), self.max_cwnd)

    def _on_new_ack(self, ack: int) -> None:
        super()._on_new_ack(ack)
        # Freed cwnd on this subflow may allow more data to be scheduled.
        self.connection.pump()

    def _on_rto(self) -> None:
        super()._on_rto()
        self.connection.on_subflow_timeout(self)

    def outstanding_dsn_ranges(self) -> List[Tuple[int, int]]:
        """DSN ranges assigned to this subflow but not yet subflow-ACKed."""
        out: List[Tuple[int, int]] = []
        for sf_start, dsn_start, length in self._mappings:
            sf_end = sf_start + length
            if sf_end <= self.snd_una:
                continue
            offset = max(0, self.snd_una - sf_start)
            out.append((dsn_start + offset, length - offset))
        return out


class MptcpSubflowReceiver(TcpReceiver):
    """Subflow receiver that additionally reports DSN ranges upward."""

    def __init__(self, connection: "MptcpConnection", *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.connection = connection

    def on_packet(self, packet: Packet) -> None:
        if packet.payload_bytes > 0:
            spans = packet.meta.get("dsn_spans")
            if spans:
                for dsn, length in spans:
                    self.connection.on_data_received(dsn, length)
            elif packet.dsn is not None:
                self.connection.on_data_received(packet.dsn, packet.payload_bytes)
        super().on_packet(packet)


class MptcpConnection:
    """An MPTCP connection: scheduler + DSN reassembly over N subflows.

    ``reinjection=True`` enables opportunistic reinjection: when a subflow
    times out, its outstanding DSN ranges are also rescheduled onto the
    other subflows (the receiver dedups by DSN).  Stock v0.89 — what the
    paper measured — does not do this, which is why its 99th percentile
    suffers when subflows are stuck on congested paths (Figure 5c); the
    option exists to ablate exactly that claim.
    """

    def __init__(
        self, sim: Simulator, n_subflows: int = 4, reinjection: bool = False
    ) -> None:
        if n_subflows < 1:
            raise ValueError("need at least one subflow")
        self.sim = sim
        self.n_subflows = n_subflows
        self.reinjection = reinjection
        self.reinjected_bytes = 0
        self.senders: List[MptcpSubflowSender] = []
        self.receivers: List[MptcpSubflowReceiver] = []
        self.app_bytes = 0            # total data-level bytes queued
        self.next_dsn = 0             # next data byte not yet mapped
        # Data-level reassembly state.
        self.data_rcv_nxt = 0
        self._ooo: List[Tuple[int, int]] = []
        self._thresholds: List[Tuple[int, Callable[[], None]]] = []
        self._pumping = False

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------
    def start_flow(self, nbytes: int, on_complete: Optional[Callable[[], None]] = None) -> None:
        """Queue one application job; ``on_complete`` fires at full delivery."""
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        self.app_bytes += nbytes
        if on_complete is not None:
            offset = self.app_bytes
            index = bisect.bisect_left([t[0] for t in self._thresholds], offset)
            self._thresholds.insert(index, (offset, on_complete))
        self.pump()

    # ------------------------------------------------------------------
    # Scheduler
    # ------------------------------------------------------------------
    def pump(self) -> None:
        """Push queued data into subflows with cwnd headroom."""
        if self._pumping:
            return  # guard against reentrancy through _try_send
        self._pumping = True
        try:
            progress = True
            while progress and self.next_dsn < self.app_bytes:
                progress = False
                for sender in self._by_rtt():
                    space = self._headroom(sender)
                    if space <= 0:
                        continue
                    length = min(MSS, space, self.app_bytes - self.next_dsn)
                    sender.assign(self.next_dsn, length)
                    self.next_dsn += length
                    progress = True
                    if self.next_dsn >= self.app_bytes:
                        break
            for sender in self.senders:
                if sender.snd_nxt < sender.app_bytes:
                    TcpSender._try_send(sender)  # bypass refill reentry
        finally:
            self._pumping = False

    def on_subflow_timeout(self, stalled: MptcpSubflowSender) -> None:
        """Opportunistic reinjection after a subflow RTO (optional)."""
        if not self.reinjection or len(self.senders) < 2:
            return
        ranges = stalled.outstanding_dsn_ranges()
        if not ranges:
            return
        # Re-map the stalled data onto the healthiest other subflow; the
        # receiver's DSN-level reassembly dedups whichever copy loses.
        others = [s for s in self._by_rtt() if s is not stalled]
        target = others[0]
        for dsn, length in ranges:
            if dsn + length <= self.data_rcv_nxt:
                continue  # already delivered at the data level
            target.assign(dsn, length)
            self.reinjected_bytes += length
        TcpSender._try_send(target)

    def refill(self, sender: MptcpSubflowSender) -> None:
        """Called by a subflow about to transmit; grant it more data."""
        if self._pumping:
            return
        while self.next_dsn < self.app_bytes and self._headroom(sender) > 0:
            length = min(MSS, self._headroom(sender), self.app_bytes - self.next_dsn)
            sender.assign(self.next_dsn, length)
            self.next_dsn += length

    def _headroom(self, sender: MptcpSubflowSender) -> int:
        """Unassigned space within the subflow's congestion window."""
        budget = sender.snd_una + int(sender.cwnd)
        return max(0, budget - sender.app_bytes)

    def _by_rtt(self) -> List[MptcpSubflowSender]:
        return sorted(
            self.senders,
            key=lambda s: s.srtt if s.srtt is not None else 0.0,
        )

    # ------------------------------------------------------------------
    # LIA (RFC 6356)
    # ------------------------------------------------------------------
    def total_cwnd(self) -> float:
        """Sum of all subflows' congestion windows (bytes)."""
        return sum(s.cwnd for s in self.senders)

    def lia_alpha(self) -> float:
        """alpha = total * max(w_i / rtt_i^2) / (sum(w_i / rtt_i))^2."""
        best = 0.0
        denom = 0.0
        for s in self.senders:
            rtt = s.srtt if s.srtt is not None and s.srtt > 0 else 1e-4
            best = max(best, s.cwnd / (rtt * rtt))
            denom += s.cwnd / rtt
        if denom <= 0:
            return 1.0
        return self.total_cwnd() * best / (denom * denom)

    # ------------------------------------------------------------------
    # Data-level reassembly
    # ------------------------------------------------------------------
    def on_data_received(self, dsn: int, length: int) -> None:
        """Fold a received DSN range into connection-level reassembly."""
        start, end = dsn, dsn + length
        if end <= self.data_rcv_nxt:
            return
        if start <= self.data_rcv_nxt:
            self.data_rcv_nxt = max(self.data_rcv_nxt, end)
            while self._ooo and self._ooo[0][0] <= self.data_rcv_nxt:
                _, e = self._ooo.pop(0)
                if e > self.data_rcv_nxt:
                    self.data_rcv_nxt = e
        else:
            index = bisect.bisect_left(self._ooo, (start, end))
            self._ooo.insert(index, (start, end))
            merged: List[Tuple[int, int]] = []
            for s, e in self._ooo:
                if merged and s <= merged[-1][1]:
                    merged[-1] = (merged[-1][0], max(merged[-1][1], e))
                else:
                    merged.append((s, e))
            self._ooo = merged
        while self._thresholds and self._thresholds[0][0] <= self.data_rcv_nxt:
            _, callback = self._thresholds.pop(0)
            callback()


def open_mptcp_connection(
    src_host: "Host",
    dst_host: "Host",
    base_src_port: int,
    dst_port: int,
    n_subflows: int = 4,
    reinjection: bool = False,
    **tcp_kwargs,
) -> MptcpConnection:
    """Create an MPTCP connection with ``n_subflows`` pre-joined subflows.

    Subflow *i* uses inner source port ``base_src_port + i``, giving each a
    distinct 5-tuple for ECMP (which may still collide, as in the paper).
    """
    connection = MptcpConnection(src_host.sim, n_subflows, reinjection=reinjection)
    for i in range(n_subflows):
        flow = FlowKey(src_host.ip, dst_host.ip, base_src_port + i, dst_port)
        sender = MptcpSubflowSender(
            connection, i, src_host.sim, src_host, flow, **tcp_kwargs
        )
        receiver = MptcpSubflowReceiver(connection, dst_host.sim, dst_host, flow)
        dst_host.register_endpoint(flow, receiver)
        src_host.register_endpoint(receiver.reverse, sender)
        connection.senders.append(sender)
        connection.receivers.append(receiver)
    return connection
