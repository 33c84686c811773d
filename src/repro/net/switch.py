"""Store-and-forward L3 switch with static-hash ECMP.

The switch models exactly the features Clove assumes from off-the-shelf
hardware:

* **ECMP** — per-destination next-hop groups; the egress link is picked by a
  static per-switch hash of the routed 5-tuple (the *outer* header for
  encapsulated traffic).  When the set of live next hops changes, ``hash %
  n`` remaps, which is why Clove re-runs path discovery after failures.
* **TTL / ICMP** — TTL is decremented per hop; on expiry the switch returns
  an ICMP Time-Exceeded identifying the ingress interface.  This is the
  primitive Clove's encapsulation-header traceroute builds on.
* **ECN marking** — performed by the egress queues (:mod:`repro.net.queue`).
* **INT stamping** — when a packet requests telemetry, the switch folds the
  egress link's DRE utilization into ``int_max_util`` (Clove-INT).

Switches intended to run CONGA subclass this, override :meth:`select_port`
and set the :attr:`Switch.on_egress` hook; everything else is shared.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.net.hashing import EcmpHasher
from repro.net.link import Link
from repro.net.packet import FlowKey, Packet
from repro.sim.engine import Simulator

PROTO_ICMP = 1
PROTO_TCP = 6

#: meta key for the ICMP payload of a Time-Exceeded message.
ICMP_TIME_EXCEEDED = "time_exceeded"


class Switch:
    """An L3 ECMP switch; every ingress link calls :meth:`receive`."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        ip: int,
        hash_seed: int,
        int_capable: bool = False,
    ) -> None:
        self.sim = sim
        self.name = name
        self.ip = ip
        self.hasher = EcmpHasher(hash_seed)
        #: the hasher's per-key memo, read directly on the forward path
        self._hash_memo = self.hasher._memo
        self.int_capable = int_capable
        #: dst_ip -> ordered ECMP group of egress links.
        self.routes: Dict[int, List[Link]] = {}
        #: seconds a freshly-dead link stays in its ECMP groups before the
        #: (modeled) routing agent repairs them.  0 = idealized instant
        #: failover, the historical behavior; real fabrics take tens of
        #: milliseconds to seconds, during which traffic hashed onto the
        #: dead member is blackholed — the regime edge-based path health
        #: monitoring (repro.core.health) exists to fix.
        self.failover_delay = 0.0
        #: dst_ip -> (live member list, Link.state_gen and window horizon
        #: it was computed at, earliest ``down_since`` among the dead links
        #: it kept).  Valid while no link flipped and the horizon has not
        #: moved back or past a kept dead link: every link then lands on
        #: the same side of the ``down_since > horizon`` test.
        self._live_cache: Dict[int, tuple] = {}
        #: reply destination -> interned ICMP 5-tuple (ECMP memo hits by
        #: identity, as for the vswitch's outer keys)
        self._icmp_keys: Dict[int, FlowKey] = {}
        self.rx_packets = 0
        self.blackholed = 0
        #: packets consumed here because their TTL hit zero
        self.ttl_expired = 0
        #: ICMP Time-Exceeded replies this switch injected into the fabric
        self.icmp_originated = 0

    #: telemetry hook; instances overwrite via :meth:`attach_telemetry`
    _tel_events = None

    def attach_telemetry(self, telemetry) -> None:
        """Bind blackhole/TTL event emission to a telemetry scope."""
        self._tel_events = telemetry.events

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def add_route(self, dst_ip: int, links: Sequence[Link]) -> None:
        """Install/replace the ECMP group towards ``dst_ip``."""
        self.routes[dst_ip] = list(links)
        self._live_cache.pop(dst_ip, None)
        if self.int_capable:
            # INT stamping reads the egress link's utilization.
            for link in links:
                link.track_utilization()

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, link_in: Optional[Link]) -> None:
        """Process one packet arriving over ``link_in`` (the handler every
        ingress link calls directly)."""
        self.rx_packets += 1
        packet.ttl -= 1
        if packet.ttl <= 0:
            self.ttl_expired += 1
            if self._tel_events is not None:
                self._tel_events.emit("switch.ttl_expired", self.sim.now,
                                      switch=self.name,
                                      dst=packet.route_key.dst_ip)
            self._send_time_exceeded(packet, link_in)
            return
        self.forward(packet, link_in)

    def forward(self, packet: Packet, link_in: Optional[Link]) -> None:
        """Route ``packet`` towards its (outer) destination IP."""
        key = packet.outer
        if key is None:
            key = packet.inner
        dst_ip = key.dst_ip
        group = self.routes.get(dst_ip)
        if not group:
            self.blackholed += 1
            if self._tel_events is not None:
                self._tel_events.emit("switch.drop", self.sim.now,
                                      switch=self.name, reason="no_route",
                                      dst=dst_ip)
            return
        # A link that died less than failover_delay ago is still an ECMP
        # member (stale-group window); packets hashed onto it are dropped at
        # the link (counted on its queue, so chaos blackhole accounting
        # attributes them to the dead cable).  down_since <= now, so with no
        # delay this is exactly the up members.
        horizon = self.sim.now - self.failover_delay
        gen = Link.state_gen
        cached = self._live_cache.get(dst_ip)
        if (cached is not None and cached[1] == gen
                and cached[2] <= horizon < cached[3]):
            live = cached[0]
        else:
            live = [link for link in group
                    if link.up or link.down_since > horizon]
            earliest = min((link.down_since for link in live if not link.up),
                           default=float("inf"))
            self._live_cache[dst_ip] = (live, gen, horizon, earliest)
        if not live:
            self.blackholed += 1
            if self._tel_events is not None:
                self._tel_events.emit("switch.drop", self.sim.now,
                                      switch=self.name, reason="all_links_down",
                                      dst=dst_ip)
            return
        link_out = self.select_port(packet, key, live, link_in)
        if self.int_capable and packet.int_enabled:
            util = link_out.utilization()
            if util > packet.int_max_util:
                packet.int_max_util = util
        if self.on_egress is not None:
            self.on_egress(packet, link_out)
        link_out.send(packet)

    def select_port(
        self,
        packet: Packet,
        key: FlowKey,
        live: List[Link],
        link_in: Optional[Link],
    ) -> Link:
        """Default policy: static ECMP hash over the live next hops."""
        hashed = self._hash_memo.get(key)
        if hashed is None:
            hashed = self.hasher.hash_key(key)
        return live[hashed % len(live)]

    #: hook called just before transmission as ``on_egress(packet,
    #: link_out)``; None (no call at all) unless a subclass sets one (CONGA)
    on_egress: Optional[Callable[[Packet, Link], None]] = None

    # ------------------------------------------------------------------
    # ICMP
    # ------------------------------------------------------------------
    def _send_time_exceeded(self, packet: Packet, link_in: Optional[Link]) -> None:
        """Reply to the (outer) source with an ICMP Time-Exceeded.

        The reply identifies the ingress interface (the link the probe came
        in on), which is what lets the traceroute daemon distinguish two
        paths that traverse the same switch via different links — exactly
        what Paris-style traceroute observes from interface IPs.
        """
        key = packet.outer if packet.outer is not None else packet.inner
        reply_key = self._icmp_keys.get(key.src_ip)
        if reply_key is None:
            reply_key = FlowKey(self.ip, key.src_ip, 0, 0, PROTO_ICMP)
            self._icmp_keys[key.src_ip] = reply_key
        reply = Packet(reply_key, payload_bytes=28, created_at=self.sim.now)
        reply.meta["icmp"] = ICMP_TIME_EXCEEDED
        reply.meta["hop_switch"] = self.name
        reply.meta["hop_interface"] = link_in.name if link_in is not None else self.name
        reply.meta["orig"] = key
        reply.meta["probe_id"] = packet.meta.get("probe_id")
        self.icmp_originated += 1
        self.forward(reply, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Switch({self.name}, routes={len(self.routes)})"
