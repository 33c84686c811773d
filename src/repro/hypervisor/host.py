"""A host = hypervisor + one guest network stack.

The host owns the NIC (the access link into its leaf switch), a
:class:`~repro.hypervisor.vswitch.VSwitch`, a transport demux table for its
guest connections, and optionally a traceroute daemon
(:class:`~repro.core.discovery.PathDiscovery`) feeding the vswitch policy.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, TYPE_CHECKING

from repro.net.packet import FlowKey, Packet
from repro.hypervisor.policy import LoadBalancer
from repro.hypervisor.vswitch import VSwitch
from repro.sim.engine import Simulator
from repro.topology.network import Network

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.discovery import PathDiscovery
    from repro.net.link import Link


class Host:
    """A simulated server (hypervisor + guest stack)."""

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        name: str,
        policy: Optional[LoadBalancer] = None,
        ecn_relay_interval: float = 0.0,
        reassembly_timeout: float = 2e-3,
        vswitch_mode: str = "overlay",
    ) -> None:
        self.sim = sim
        self.net = net
        self.name = name
        self.ip = net.host_ip(name)
        # The uplink and the demux table exist before the vswitch, which
        # binds both: it sends on the one and delivers through the other.
        self._uplink = net.host_link(name)
        self._endpoints: Dict[FlowKey, object] = {}
        #: destinations the prober has been told about (see send_from_guest)
        self._noticed: Set[int] = set()
        self.vswitch = VSwitch(
            sim, self, policy, ecn_relay_interval,
            reassembly_timeout=reassembly_timeout,
            mode=vswitch_mode,
        )
        #: (prober ip, reply sport) -> interned probe-reply 5-tuple
        self._reply_keys: Dict[tuple, FlowKey] = {}
        self.prober: Optional["PathDiscovery"] = None
        #: path health monitor (repro.core.health); None = no self-healing
        self.health = None
        self.rx_packets = 0
        #: packets this host put on its access link (the fabric-entry
        #: chokepoint the conservation ledger balances against)
        self.tx_nic_packets = 0
        #: telemetry scope shared with this host's transports (see
        #: :meth:`attach_telemetry`; None = uninstrumented)
        self.telemetry = None
        net.register_host_receiver(name, self.receive)

    #: control-plane fault state (repro.chaos.engine.ControlPlaneState);
    #: installed by ChaosEngine.attach_hosts only on targeted hosts, so
    #: fault-free runs pay a single class-attribute read per control packet
    control_faults = None

    def attach_telemetry(self, telemetry) -> None:
        """Bind this host (vswitch, policy, guest transports) to a scope."""
        self.telemetry = telemetry
        self.vswitch.attach_telemetry(telemetry)
        if self.health is not None:
            self.health.attach_telemetry(telemetry)

    # ------------------------------------------------------------------
    # Guest-side API
    # ------------------------------------------------------------------
    def register_endpoint(self, key: FlowKey, endpoint: object) -> None:
        """Demux registration: packets whose inner 5-tuple equals ``key``
        are delivered to ``endpoint.on_packet``."""
        self._endpoints[key] = endpoint

    def unregister_endpoint(self, key: FlowKey) -> None:
        """Remove a demux registration (no-op if absent)."""
        self._endpoints.pop(key, None)

    def send_from_guest(self, packet: Packet) -> None:
        """Guest stack transmits: route through the virtual switch.

        The prober hears of each destination once.  That is all it needs:
        it ignores a destination it already watches, and its crash-restart
        ``reset`` is followed at once by re-noticing every watched one.
        """
        if self.prober is not None:
            dst_ip = packet.inner.dst_ip
            if dst_ip not in self._noticed:
                self._noticed.add(dst_ip)
                self.prober.notice_destination(dst_ip)
        self.vswitch.transmit(packet)

    def deliver_to_guest(self, packet: Packet) -> None:
        """Hand a decapsulated packet to the guest transport demux (the
        overlay receive path does this lookup inline; reassembly, rewrite
        mode and plain packets come through here)."""
        endpoint = self._endpoints.get(packet.inner)
        if endpoint is not None:
            endpoint.on_packet(packet)

    # ------------------------------------------------------------------
    # NIC
    # ------------------------------------------------------------------
    def nic_send(self, packet: Packet) -> None:
        """Put a packet on the access link: control traffic and the
        non-overlay paths (``VSwitch.transmit`` sends tunnelled data
        itself, with the same count)."""
        self.tx_nic_packets += 1
        self._uplink.send(packet)

    def receive(self, packet: Packet, link_in: Link) -> None:
        """NIC receive path: demux control traffic, tunnels, plain packets
        (``link_in``, the access link it arrived on, is not needed here)."""
        self.rx_packets += 1
        meta = packet.meta
        if meta:
            # Chaos probe_loss: discovery ICMP/probe traffic and liveness
            # probes vanish here, after the rx count (the conservation
            # ledger books them as delivered, then discarded).
            faults = self.control_faults
            if (
                faults is not None
                and ("probe" in meta or "probe_reply" in meta or "icmp" in meta)
                and faults.drop_probe()
            ):
                return
            if "icmp" in meta and self.prober is not None:
                self.prober.on_icmp(packet)
                return
            if "probe_reply" in meta:
                # Probe ids are drawn from one shared counter; the health
                # monitor claims its own replies, everything else belongs
                # to the traceroute daemon.
                claimed = (self.health is not None
                           and self.health.on_probe_reply(packet))
                if not claimed and self.prober is not None:
                    self.prober.on_probe_reply(packet)
                return
            if "probe" in meta:
                self._answer_probe(packet)
                return
        if packet.outer is not None:
            self.vswitch.receive_encapsulated(packet)
        elif meta and "clove_orig_sport" in meta:
            self.vswitch.receive_rewritten(packet)
        else:
            self.deliver_to_guest(packet)

    def _answer_probe(self, probe: Packet) -> None:
        """A traceroute probe reached us: confirm the full path to its
        sender (the equivalent of the final hop answering)."""
        key = probe.route_key
        sport = self._reply_sport(probe) if probe.meta.get("health") else 0
        reply_key = self._reply_keys.get((key.src_ip, sport))
        if reply_key is None:
            reply_key = FlowKey(self.ip, key.src_ip, sport, 0, 17)
            self._reply_keys[(key.src_ip, sport)] = reply_key
        reply = Packet(reply_key, payload_bytes=28, created_at=self.sim.now)
        reply.meta["probe_reply"] = probe.meta["probe"]
        reply.meta["probe_sport"] = key.src_port
        self.nic_send(reply)

    def _reply_sport(self, probe: Packet) -> int:
        """Reverse-path choice for a health-probe reply.

        A fixed reply source port would pin every reply onto one reverse
        path, and a *dead* reverse path would then fail the prober's
        forward paths wholesale (reverse-path false positives).  Replies
        instead rotate over this host's own live (non-quarantined) ports
        towards the prober — the destination's quarantine knowledge keeps
        its replies off paths it already knows are dead — falling back to
        a per-probe varied ephemeral port before discovery has run.
        """
        pid = probe.meta["probe"]
        weights = self.vswitch.weights
        if weights is not None:
            live = weights.live_ports_for(probe.route_key.src_ip)
            if live:
                return live[pid % len(live)]
        return 49152 + (pid * 2654435761) % 16384

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Host({self.name}, ip={self.ip})"
