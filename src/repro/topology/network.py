"""The :class:`Network` container: switches, links, hosts and ECMP routes.

A ``Network`` owns every physical element of a simulated fabric and knows
how to (re)compute shortest-path ECMP routing tables over it.  Topology
builders (:mod:`repro.topology.leafspine`, :mod:`repro.topology.fattree`)
populate a ``Network``; experiments then attach hosts and inject failures.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.net.switch import Switch
from repro.sim.engine import Simulator


@dataclass
class LinkSpec:
    """Parameters shared by a class of links (host or fabric)."""

    rate_bps: float
    delay_s: float
    queue_capacity_packets: int = 200
    ecn_threshold_packets: Optional[int] = 20

    def make_queue(self) -> DropTailQueue:
        """Build a queue configured per this spec."""
        return DropTailQueue(self.queue_capacity_packets, self.ecn_threshold_packets)


def _hop_counts(adjacency: Dict[str, Set[str]], source: str) -> Dict[str, int]:
    """Breadth-first hop count from ``source`` to every node it reaches."""
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        for nbr in adjacency[node]:
            if nbr not in dist:
                dist[nbr] = dist[node] + 1
                frontier.append(nbr)
    return dist


class Network:
    """A fabric of switches and hosts plus its routing state."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.switches: Dict[str, Switch] = {}
        #: directed parallel links, keyed (src_node, dst_node) -> [Link, ...]
        self.links: Dict[Tuple[str, str], List[Link]] = {}
        #: host name -> (ip, leaf switch name)
        self.hosts: Dict[str, Tuple[int, str]] = {}
        self.host_ips: Dict[int, str] = {}
        #: handler called when a packet reaches a host NIC.
        self._host_rx: Dict[str, Callable[[Packet], None]] = {}
        self._next_ip = 1

    # ------------------------------------------------------------------
    # Construction (used by the builders)
    # ------------------------------------------------------------------
    def allocate_ip(self) -> int:
        """Hand out the next unused address."""
        ip = self._next_ip
        self._next_ip += 1
        return ip

    def add_switch(self, switch: Switch) -> Switch:
        """Register a switch (names must be unique)."""
        if switch.name in self.switches:
            raise ValueError(f"duplicate switch {switch.name}")
        self.switches[switch.name] = switch
        return switch

    def add_duplex_link(self, a: str, b: str, spec: LinkSpec) -> Tuple[Link, Link]:
        """Create a cable: one Link per direction, delivered to each endpoint."""
        fwd = self._add_simplex(a, b, spec)
        rev = self._add_simplex(b, a, spec)
        return fwd, rev

    def _add_simplex(self, src: str, dst: str, spec: LinkSpec) -> Link:
        existing = self.links.setdefault((src, dst), [])
        name = f"{src}->{dst}#{len(existing)}"
        link = Link(self.sim, name, spec.rate_bps, spec.delay_s, spec.make_queue())
        existing.append(link)
        self._wire_receiver(link, dst)
        return link

    def _wire_receiver(self, link: Link, dst: str) -> None:
        if dst in self.switches:
            link.connect(self.switches[dst].ingress_handler(link))
            return
        handler = self._host_rx.get(dst)
        if handler is not None:
            link.connect(handler)
            return
        # Host NICs are usually registered after links are created;
        # register_host_receiver rebinds the link straight to the handler
        # then.  Until that happens, fall back to a registry lookup.
        def _deliver(packet: Packet, _dst: str = dst) -> None:
            live = self._host_rx.get(_dst)
            if live is not None:
                live(packet)
        link.connect(_deliver)

    def add_host(
        self, name: str, leaf: str, spec: LinkSpec, uplink_spec: Optional[LinkSpec] = None
    ) -> int:
        """Attach a host to ``leaf``; returns its assigned IP.

        ``uplink_spec`` (host -> leaf direction) defaults to ``spec``; give
        it a deeper, ECN-free queue to model the host's qdisc rather than a
        switch port.
        """
        if name in self.hosts:
            raise ValueError(f"duplicate host {name}")
        ip = self.allocate_ip()
        self.hosts[name] = (ip, leaf)
        self.host_ips[ip] = name
        self._add_simplex(name, leaf, uplink_spec if uplink_spec is not None else spec)
        self._add_simplex(leaf, name, spec)
        return ip

    def register_host_receiver(self, name: str, handler: Callable[[Packet], None]) -> None:
        """Install the NIC receive callback for a host (done by hypervisors)."""
        if name not in self.hosts:
            raise KeyError(f"unknown host {name}")
        self._host_rx[name] = handler
        # Rebind this host's ingress links straight to the handler so the
        # data path skips the per-packet registry lookup.
        for (_src, dst), group in self.links.items():
            if dst == name:
                for link in group:
                    link.connect(handler)

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    def host_link(self, host: str) -> Link:
        """The host's uplink (host -> leaf)."""
        _, leaf = self.hosts[host]
        return self.links[(host, leaf)][0]

    def host_ip(self, host: str) -> int:
        """The address assigned to a host name."""
        return self.hosts[host][0]

    def links_between(self, a: str, b: str) -> List[Link]:
        """Directed parallel links from ``a`` to ``b`` (may be empty)."""
        return self.links.get((a, b), [])

    def all_links(self) -> List[Link]:
        """Every directed link in the fabric, flattened."""
        return [link for group in self.links.values() for link in group]

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def graph(self, live_only: bool = True) -> Dict[str, Set[str]]:
        """Node-level undirected connectivity (parallel links collapsed):
        every switch and host mapped to the set of its neighbours."""
        adjacency: Dict[str, Set[str]] = {
            node: set() for nodes in (self.switches, self.hosts) for node in nodes
        }
        for (src, dst), group in self.links.items():
            if any(link.up for link in group) or not live_only:
                adjacency.setdefault(src, set()).add(dst)
                adjacency.setdefault(dst, set()).add(src)
        return adjacency

    def compute_routes(self) -> None:
        """Install shortest-path ECMP groups for every host destination.

        For each destination host, every switch's ECMP group is the set of
        its links towards neighbours strictly closer to the destination.
        Parallel links to the same next hop all join the group (they are
        equal cost), matching the paper's testbed where each leaf-spine pair
        is connected by two 40G links.
        """
        g = self.graph(live_only=False)
        for host, (ip, _leaf) in self.hosts.items():
            dist = _hop_counts(g, host)
            for switch in self.switches.values():
                if switch.name not in dist:
                    continue
                my_dist = dist[switch.name]
                group: List[Link] = []
                for nbr in sorted(g[switch.name]):
                    if dist.get(nbr, float("inf")) == my_dist - 1:
                        group.extend(self.links.get((switch.name, nbr), []))
                if group:
                    switch.add_route(ip, group)
        # Switch loopback IPs (for ICMP replies back to hosts handled above;
        # probes are only ever *sourced* by hosts, so no routes to switches
        # are needed).

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def cable(self, a: str, b: str, index: int = 0) -> Tuple[Link, Link]:
        """Both directions of one cable, with a diagnosable miss.

        Raises ``KeyError`` naming the bad endpoint pair (listing the
        node pairs that do exist) or the bad parallel index, instead of
        surfacing a raw dict/list lookup failure.
        """
        forward = self.links.get((a, b))
        reverse = self.links.get((b, a))
        if forward is None or reverse is None:
            pairs = sorted({tuple(sorted(key)) for key in self.links})
            raise KeyError(
                f"no cable between {a!r} and {b!r}; connected pairs: "
                + ", ".join(f"{x}-{y}" for x, y in pairs)
            )
        if not 0 <= index < min(len(forward), len(reverse)):
            raise KeyError(
                f"cable index {index} out of range for {a!r}-{b!r} "
                f"(has {min(len(forward), len(reverse))} parallel cable(s))"
            )
        return forward[index], reverse[index]

    def fail_cable(self, a: str, b: str, index: int = 0) -> int:
        """Fail one cable (both directions); returns flushed packet count."""
        fwd, rev = self.cable(a, b, index)
        return fwd.fail() + rev.fail()

    def recover_cable(self, a: str, b: str, index: int = 0) -> None:
        """Recover a previously failed cable."""
        fwd, rev = self.cable(a, b, index)
        fwd.recover()
        rev.recover()

    def degrade_cable(self, a: str, b: str, index: int = 0,
                      factor: float = 0.25) -> None:
        """Run one cable at ``factor`` of its *nominal* rate (both
        directions).  Not cumulative: the factor is always relative to the
        as-built rate."""
        fwd, rev = self.cable(a, b, index)
        fwd.degrade(factor)
        rev.degrade(factor)

    def restore_cable(self, a: str, b: str, index: int = 0) -> None:
        """Return a degraded cable to exactly its as-built rate."""
        fwd, rev = self.cable(a, b, index)
        fwd.restore_rate()
        rev.restore_rate()

    def bisection_bandwidth_bps(self) -> float:
        """Effective inter-leaf bandwidth: the tightest leaf's live uplinks.

        For the paper's 2-leaf fabric this matches its accounting — failing
        one of L2's four 40G uplinks "drops the effective bandwidth by 25%".
        """
        leaves = {leaf for _h, (_ip, leaf) in self.hosts.items()}
        per_leaf = []
        for leaf in leaves:
            capacity = 0.0
            for (src, dst), group in self.links.items():
                if src == leaf and dst in self.switches:
                    capacity += sum(link.rate_bps for link in group if link.up)
            per_leaf.append(capacity)
        return min(per_leaf) if per_leaf else 0.0
