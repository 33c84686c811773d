"""The hypervisor virtual switch (the paper's OVS datapath).

Transmit side (guest -> fabric):

1. ask the :class:`~repro.hypervisor.policy.LoadBalancer` for an outer
   source port (the indirect-source-routing knob);
2. encapsulate with an STT-style header (fixed destination port, hypervisor
   IPs, ECT set when the policy uses ECN, INT requested when it uses INT);
3. piggyback at most one pending telemetry echo for the destination
   hypervisor in the STT context bits.

Receive side (fabric -> guest):

1. decapsulate; observe outer CE / INT metadata and queue it for
   reflection back to the sender (rate-limited per path for ECN — the
   "ECN relay frequency" of Section 3.2);
2. consume any echo carried on the packet and hand it to the local policy;
3. mask underlay ECN from the guest — unless the policy reports *all*
   paths congested, in which case ECE is injected into ACKs so the guest
   TCP throttles (Section 3.2);
4. optionally run Presto-style in-order reassembly before delivery.
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

from repro.net.packet import FlowKey, Packet, STT_DST_PORT
from repro.hypervisor.policy import LoadBalancer, PathFeedback
from repro.sim.engine import Simulator
from repro.transport.tcp import FLAG_ECE

if TYPE_CHECKING:  # pragma: no cover
    from repro.hypervisor.host import Host


class _PathEchoState:
    """Pending telemetry to reflect to one remote hypervisor, per port."""

    __slots__ = ("ecn_pending", "last_ecn_relay", "util", "util_fresh",
                 "ecn_seen_at", "epoch")

    def __init__(self) -> None:
        self.ecn_pending = False
        self.last_ecn_relay = -1e9
        self.util: float = 0.0
        self.util_fresh = False
        #: when the pending CE observation was first made (trace timing)
        self.ecn_seen_at: Optional[float] = None
        #: the sender's weight-table epoch last seen on this path; echoes
        #: reflect it so the sender can reject previous-generation feedback
        self.epoch: Optional[int] = None


class _ReassemblyBuffer:
    """Per-flow in-order delivery buffer (Presto's receiver logic)."""

    __slots__ = ("expected", "segments", "flush_event")

    def __init__(self) -> None:
        self.expected: Optional[int] = None
        self.segments: Dict[int, Packet] = {}
        self.flush_event = None


class VSwitch:
    """Per-hypervisor virtual switch with a pluggable load balancer."""

    def __init__(
        self,
        sim: Simulator,
        host: "Host",
        policy: Optional[LoadBalancer],
        ecn_relay_interval: float = 0.0,
        reassembly_timeout: float = 2e-3,
        reassembly_limit: int = 128,
        mode: str = "overlay",
    ) -> None:
        if mode not in ("overlay", "rewrite"):
            raise ValueError(f"unknown vswitch mode {mode!r}")
        self.sim = sim
        self.host = host
        self.policy = policy
        #: "overlay" = STT encapsulation (the paper's main deployment);
        #: "rewrite" = the Section 7 non-overlay "hidden overlay": the
        #: source port is rewritten in place and the original value hidden
        #: in (what stands for) TCP option space, restored at the far end.
        self.mode = mode
        #: min seconds between ECN relays for the same path (½RTT in paper).
        self.ecn_relay_interval = ecn_relay_interval
        self.reassembly_timeout = reassembly_timeout
        self.reassembly_limit = reassembly_limit
        #: remote hypervisor ip -> port -> pending echo state
        self._echo: Dict[int, Dict[int, _PathEchoState]] = {}
        self._echo_rotation: Dict[int, int] = {}
        #: remote ip -> sorted list of its echo-state ports (rebuilt only
        #: when a new path port appears, not per transmitted packet)
        self._echo_ports: Dict[int, list] = {}
        #: remote ip -> False when a full scan proved nothing is pending;
        #: set True whenever receive queues new telemetry for that remote.
        #: Conservative: True merely means "worth scanning".
        self._echo_maybe: Dict[int, bool] = {}
        self._reassembly: Dict[FlowKey, _ReassemblyBuffer] = {}
        #: the policy's WeightedPathTable, cached so the per-packet epoch
        #: stamp costs one attribute read instead of a getattr
        self._weights = getattr(policy, "weights", None)
        # Per-packet policy flags, frozen at construction (they are class
        # or __init__ attributes of the policy, never flipped mid-run).
        self._wants_ecn = bool(policy is not None and policy.wants_ecn)
        self._wants_int = bool(policy is not None and policy.wants_int)
        self._wants_latency = bool(
            policy is not None and getattr(policy, "wants_latency", False)
        )
        #: outer (dst_hyp, sport) -> interned FlowKey: the encap header for
        #: a given path is always the same value, and reusing one object
        #: lets every downstream hash (switch ECMP memo, flowlet tables)
        #: hit its cached FlowKey hash
        self._outer_keys: Dict[tuple, FlowKey] = {}
        # Counters.
        self.tx_encapsulated = 0
        self.rx_encapsulated = 0
        self.echoes_sent = 0
        #: echoes that arrived carrying context bits (before any chaos
        #: interception or guard) — the denominator of the echo ledger
        self.echoes_carried = 0
        #: echoes actually consumed (after chaos, bounds and epoch checks)
        self.echoes_received = 0
        #: echoes dropped by the bounds check on garbled context bits
        self.echoes_corrupt_dropped = 0
        #: echoes rejected because they reflect a previous weight epoch
        self.echoes_stale_rejected = 0
        self.guest_ecn_injected = 0

    #: telemetry hooks; instances overwrite via :meth:`attach_telemetry`
    _tel_events = None
    _tel_trace = None
    #: audit hook (repro.audit.Auditor); instances overwrite via
    #: Auditor.attach — the same class-attr-None discipline keeps the
    #: unaudited receive path to one ``is None`` test
    _audit = None
    #: control-plane fault state (repro.chaos.engine.ControlPlaneState);
    #: installed by ChaosEngine.attach_hosts only on targeted hosts
    control_faults = None
    #: reject echoes from a previous weight-table epoch; a test-only
    #: escape hatch disables it to demonstrate the stale_applied hazard
    epoch_guard = True

    def attach_telemetry(self, telemetry) -> None:
        """Bind echo/rewrite event emission here and propagate to the policy."""
        self._tel_events = telemetry.events
        trace = getattr(telemetry, "trace", None)
        self._tel_trace = trace if (trace is not None and trace.enabled) else None
        if self.policy is not None:
            self.policy.attach_telemetry(telemetry)

    # ------------------------------------------------------------------
    # Transmit path
    # ------------------------------------------------------------------
    def transmit(self, packet: Packet) -> None:
        """Encapsulate (or rewrite) a guest packet and hand it to the NIC."""
        if self.policy is None:
            self.host.nic_send(packet)  # non-overlay pass-through
            return
        if self.mode == "rewrite":
            self._transmit_rewrite(packet)
            return
        now = self.sim.now
        inner = packet.inner
        dst_hyp = inner.dst_ip
        sport = self.policy.select_source_port(inner, packet, now)
        if self._tel_trace is not None and packet.payload_bytes:
            self._tel_trace.flowlet_bytes(inner, packet.payload_bytes)
        outer_id = (dst_hyp, sport)
        outer = self._outer_keys.get(outer_id)
        if outer is None:
            outer = FlowKey(self.host.ip, dst_hyp, sport, STT_DST_PORT)
            self._outer_keys[outer_id] = outer
        packet.encapsulate(outer, ect=self._wants_ecn)
        if self._wants_int:
            packet.int_enabled = True
        if self._wants_latency:
            # Stand-in for the NIC timestamp of Section 7 (perfectly
            # synchronized clocks in simulation).
            packet.meta["clove_ts"] = now
        if self._weights is not None:
            packet.clove_epoch = self._weights.epoch_of(dst_hyp)
        if self._echo_maybe.get(dst_hyp):
            self._attach_echo(packet, dst_hyp)
        self.tx_encapsulated += 1
        self.host.nic_send(packet)

    def _transmit_rewrite(self, packet: Packet) -> None:
        """Section 7 non-overlay mode: rewrite the source port in place.

        The original value travels in (what models) TCP option space and
        the destination vswitch restores it before delivery, keeping the
        guest stacks entirely unaware.
        """
        inner = packet.inner
        sport = self.policy.select_source_port(inner, packet, self.sim.now)
        if self._tel_trace is not None and packet.payload_bytes:
            self._tel_trace.flowlet_bytes(inner, packet.payload_bytes)
        if self._tel_events is not None and sport != inner.src_port:
            self._tel_events.emit(
                "vswitch.rewrite", self.sim.now,
                host=self.host.name, dst=inner.dst_ip,
                orig_sport=inner.src_port, sport=sport,
            )
        packet.meta["clove_orig_sport"] = inner.src_port
        packet.inner = FlowKey(
            inner.src_ip, inner.dst_ip, sport, inner.dst_port, inner.proto
        )
        packet.ect = self._wants_ecn
        if self._wants_latency:
            packet.meta["clove_ts"] = self.sim.now
        if self._weights is not None:
            packet.clove_epoch = self._weights.epoch_of(inner.dst_ip)
        if self._echo_maybe.get(inner.dst_ip):
            self._attach_echo(packet, inner.dst_ip)
        self.tx_encapsulated += 1
        self.host.nic_send(packet)

    def receive_rewritten(self, packet: Packet) -> None:
        """Restore a rewritten packet and run the same telemetry steps."""
        self.rx_encapsulated += 1
        remote = packet.inner.src_ip
        path_port = packet.inner.src_port
        original_sport = packet.meta.pop("clove_orig_sport")
        packet.inner = FlowKey(
            remote, packet.inner.dst_ip, original_sport,
            packet.inner.dst_port, packet.inner.proto,
        )
        self._collect_and_deliver(packet, remote, path_port)

    def _attach_echo(self, packet: Packet, dst_hyp: int) -> None:
        """Piggyback one pending telemetry item for ``dst_hyp``, if any.

        Only called when ``_echo_maybe`` says a scan might find something;
        a scan that comes up empty — everything consumed, or only
        rate-limited ECN holdbacks remain (which need no scan until their
        pending bit is re-observed or the interval passes, and the next
        receive re-arms the flag anyway) — clears the flag when truly
        nothing is pending.
        """
        states = self._echo.get(dst_hyp)
        if not states:
            self._echo_maybe[dst_hyp] = False
            return
        ports = self._echo_ports.get(dst_hyp)
        if ports is None or len(ports) != len(states):
            # _collect_and_deliver maintains this cache; rebuild defensively
            # for state seeded out-of-band (tests, future control planes).
            ports = sorted(states)
            self._echo_ports[dst_hyp] = ports
        start = self._echo_rotation.get(dst_hyp, 0)
        now = self.sim.now
        n = len(ports)
        anything_pending = False
        for i in range(n):
            port = ports[(start + i) % n]
            state = states[port]
            if state.ecn_pending:
                if now - state.last_ecn_relay >= self.ecn_relay_interval:
                    packet.stt_echo_port = port
                    packet.stt_echo_ecn = True
                    packet.stt_echo_util = state.util if state.util_fresh else None
                    packet.stt_echo_seen = state.ecn_seen_at
                    packet.stt_echo_epoch = state.epoch
                    state.ecn_pending = False
                    state.ecn_seen_at = None
                    state.util_fresh = False
                    state.last_ecn_relay = now
                    self._echo_rotation[dst_hyp] = (start + i + 1) % n
                    self.echoes_sent += 1
                    return
                anything_pending = True
            if state.util_fresh:
                packet.stt_echo_port = port
                packet.stt_echo_ecn = False
                packet.stt_echo_util = state.util
                packet.stt_echo_epoch = state.epoch
                state.util_fresh = False
                self._echo_rotation[dst_hyp] = (start + i + 1) % n
                self.echoes_sent += 1
                return
        if not anything_pending:
            self._echo_maybe[dst_hyp] = False

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def receive_encapsulated(self, packet: Packet) -> None:
        """Process a tunnelled packet arriving from the fabric."""
        self.rx_encapsulated += 1
        outer = packet.decapsulate()
        self._collect_and_deliver(packet, outer.src_ip, outer.src_port)

    def _collect_and_deliver(self, packet: Packet, remote: int, path_port: int) -> None:
        """Shared receive tail: telemetry, echoes, masking, delivery."""
        # (1) queue telemetry about the forward path (remote -> us) for
        # reflection back to the remote.
        states = self._echo.get(remote)
        if states is None:
            states = self._echo[remote] = {}
        state = states.get(path_port)
        if state is None:
            state = states[path_port] = _PathEchoState()
            self._echo_ports[remote] = sorted(states)
        if packet.ce:
            if not state.ecn_pending:
                state.ecn_seen_at = self.sim.now
            state.ecn_pending = True
            self._echo_maybe[remote] = True
            if self._audit is not None:
                self._audit.on_ce_observed(self.host.ip, remote, path_port)
        if packet.clove_epoch is not None:
            state.epoch = packet.clove_epoch
        if packet.int_enabled:
            state.util = packet.int_max_util
            state.util_fresh = True
            self._echo_maybe[remote] = True
        meta = packet.meta
        if meta:
            sent_at = meta.pop("clove_ts", None)
            if sent_at is not None:
                # Section 7 latency mode: reflect the measured one-way delay
                # in the same context slot INT utilization uses.
                state.util = self.sim.now - sent_at
                state.util_fresh = True
                self._echo_maybe[remote] = True

        # (2) consume any echo the remote attached about our forward paths.
        # The chaos filter may drop, delay, duplicate, or garble the echo
        # before the bounds and epoch guards see it.
        if self.policy is not None and packet.stt_echo_port is not None:
            self.echoes_carried += 1
            args = (remote, packet.stt_echo_port, packet.stt_echo_ecn,
                    packet.stt_echo_util, packet.stt_echo_epoch,
                    packet.stt_echo_seen)
            faults = self.control_faults
            if faults is not None:
                args = faults.filter_echo(self, args)
            if args is not None:
                self._consume_echo(*args)

        # (3) mask underlay ECN from the guest; inject ECE only when every
        # path to the remote is congested.
        packet.ce = False
        packet.ect = False
        packet.int_enabled = False
        if (
            self.policy is not None
            and packet.is_ack
            and self.policy.all_paths_congested(remote, self.sim.now)
        ):
            if FLAG_ECE not in packet.flags:
                packet.flags += FLAG_ECE
                self.guest_ecn_injected += 1

        # (4) deliver (optionally through Presto reassembly).
        if (
            self.policy is not None
            and self.policy.needs_reassembly
            and packet.payload_bytes > 0
        ):
            self._reassemble(packet)
        else:
            self.host.deliver_to_guest(packet)

    def _consume_echo(
        self,
        remote: int,
        port: int,
        ecn: bool,
        util: Optional[float],
        epoch: Optional[int],
        seen: Optional[float],
    ) -> None:
        """Guard and apply one reflected echo about our forward paths.

        Exactly one of three things happens: the echo is dropped as
        corrupt (out-of-bounds context bits), rejected as stale (it
        reflects a previous weight-table epoch), or consumed — counted in
        ``echoes_corrupt_dropped`` / ``echoes_stale_rejected`` /
        ``echoes_received`` respectively, which is what lets the audit
        ledger balance the echo books.  Called directly by the chaos
        filter for delayed and duplicated copies.
        """
        # Bounds check: a garbled echo must never reach the weight table.
        if (
            not 0 <= port <= 65535
            or (util is not None and not 0.0 <= util < 1e6)
        ):
            self.echoes_corrupt_dropped += 1
            if self._tel_events is not None:
                self._tel_events.emit(
                    "clove.echo_corrupt", self.sim.now,
                    host=self.host.name, remote=remote,
                    port=port, util=util,
                )
            return
        # Epoch guard: feedback about a path set that predates a respread
        # or a vswitch restart is counted, never applied.
        weights = self._weights
        if (
            self.epoch_guard
            and weights is not None
            and epoch is not None
            and epoch != weights.epoch_of(remote)
        ):
            self.echoes_stale_rejected += 1
            weights.stale_echoes += 1
            if self._tel_events is not None:
                self._tel_events.emit(
                    "clove.stale_echo", self.sim.now,
                    host=self.host.name, remote=remote, port=port,
                    reason="epoch", echo_epoch=epoch,
                    current_epoch=weights.epoch_of(remote),
                )
            if self._tel_trace is not None:
                self._tel_trace.instant(
                    "clove", "stale_echo", self.sim.now,
                    host=self.host.name, remote=remote, port=port,
                    reason="epoch",
                )
            return
        self.echoes_received += 1
        if self._audit is not None and ecn:
            self._audit.on_echo_consumed(self.host.ip, remote, port)
        if self._tel_events is not None:
            self._tel_events.emit(
                "clove.ecn_echo" if ecn else "clove.int_echo",
                self.sim.now,
                host=self.host.name, remote=remote,
                port=port, util=util,
            )
        # The ECN reaction chain as one span: from the instant the
        # remote hypervisor saw CE (carried in the echo context) to the
        # weight-table respread that reacts to it.
        trace = self._tel_trace
        reaction = None
        if trace is not None and ecn:
            reaction = trace.begin(
                "reaction", f"ecn:{port}",
                seen if seen is not None else self.sim.now,
                host=self.host.name, remote=remote, port=port,
            )
        self.policy.on_path_feedback(
            PathFeedback(
                dst_ip=remote,
                port=port,
                congested=ecn,
                util=util,
                epoch=epoch,
            ),
            self.sim.now,
        )
        if reaction is not None:
            if weights is not None:
                snapshot = weights.weights_for(remote)
                if snapshot:
                    trace.instant(
                        "respread", "weights_respread", self.sim.now,
                        parent=reaction.sid,
                        weights=trace.weights_fingerprint(snapshot),
                    )
            trace.end(reaction, self.sim.now)
        if self.host.health is not None:
            # An echo about a path proves packets we sent on it made it
            # to the remote: data-plane liveness between health probes.
            self.host.health.on_echo(remote, port, congested=ecn)

    # ------------------------------------------------------------------
    # Presto flowcell reassembly
    # ------------------------------------------------------------------
    def _reassemble(self, packet: Packet) -> None:
        buffer = self._reassembly.get(packet.inner)
        if buffer is None:
            buffer = _ReassemblyBuffer()
            self._reassembly[packet.inner] = buffer
        if buffer.expected is None:
            buffer.expected = packet.seq
        if packet.seq < buffer.expected:
            # Retransmission of already-delivered data: pass straight up.
            self.host.deliver_to_guest(packet)
            return
        buffer.segments[packet.seq] = packet
        self._drain(packet.inner, buffer)
        if buffer.segments and len(buffer.segments) >= self.reassembly_limit:
            self._flush(packet.inner, buffer)
        elif buffer.segments and buffer.flush_event is None:
            buffer.flush_event = self.sim.schedule(
                self.reassembly_timeout, self._on_flush_timer, packet.inner
            )

    def _drain(self, flow: FlowKey, buffer: _ReassemblyBuffer) -> None:
        """Deliver the in-order prefix of buffered segments."""
        while buffer.expected in buffer.segments:
            segment = buffer.segments.pop(buffer.expected)
            buffer.expected += segment.payload_bytes
            self.host.deliver_to_guest(segment)
        if not buffer.segments and buffer.flush_event is not None:
            buffer.flush_event.cancel()
            buffer.flush_event = None

    def _flush(self, flow: FlowKey, buffer: _ReassemblyBuffer) -> None:
        """Give up on the gap: deliver everything buffered, in seq order.

        The guest TCP's own dupack/retransmit machinery then recovers the
        hole — this matches Presto's loss-recovery escape hatch.  Reassembly
        re-syncs to the tail of what was flushed, so the retransmitted hole
        (seq below ``expected``) passes straight through when it arrives.
        """
        last_end = buffer.expected
        for seq in sorted(buffer.segments):
            segment = buffer.segments.pop(seq)
            last_end = seq + segment.payload_bytes
            self.host.deliver_to_guest(segment)
        if buffer.flush_event is not None:
            buffer.flush_event.cancel()
            buffer.flush_event = None
        buffer.expected = last_end

    def _on_flush_timer(self, flow: FlowKey) -> None:
        buffer = self._reassembly.get(flow)
        if buffer is None:
            return
        buffer.flush_event = None
        if buffer.segments:
            self._flush(flow, buffer)
