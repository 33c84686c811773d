"""CONGA baseline: in-network, utilization-aware flowlet routing.

Follows the CONGA algorithm for 2-tier leaf-spine fabrics, as the Clove
authors reproduced it in NS2 for Section 6:

* every fabric link keeps a Discounting Rate Estimator (DRE);
* the **source leaf** routes each flowlet onto the uplink (= full path, via
  deterministic spine forwarding) minimizing ``max(local uplink DRE,
  remote congestion metric)``;
* packets carry ``(lbtag, ce)``: the chosen path id and the running max of
  link utilizations seen so far, updated at every hop's egress;
* the **destination leaf** stores ``ce`` in its congestion-from-leaf table
  and piggybacks one feedback entry ``(fbtag, fbmetric)`` per packet of
  reverse traffic, which the source leaf folds into its congestion-to-leaf
  table.

Spines forward tagged packets on the cable ordinal encoded in ``lbtag``
(falling back to the live set under failures), pinning the leaf's choice to
a full path like CONGA's fabric does with its LBTag.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Tuple

from repro.net.link import Link
from repro.net.packet import FlowKey, Packet
from repro.net.switch import Switch
from repro.topology.network import Network

#: meta keys carried by CONGA-tagged packets
LBTAG = "conga_lbtag"
CE = "conga_ce"
FB_TAG = "conga_fbtag"
FB_METRIC = "conga_fbmetric"
SRC_LEAF = "conga_srcleaf"


def _stamp_ce(switch: Switch, packet: Packet, link_out: Link) -> None:
    """Egress hook of every CONGA switch: fold the egress link's DRE into
    the running max a tagged packet carries."""
    if CE in packet.meta:
        util = link_out.dre.utilization(switch.sim.now)
        if util > packet.meta[CE]:
            packet.meta[CE] = util


class CongaLeafSwitch(Switch):
    """A leaf running CONGA's source/destination logic."""

    def __init__(self, *args, flowlet_gap: float = 400e-6, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.flowlet_gap = flowlet_gap
        self.rng = random.Random(self.hasher.seed ^ 0xC09A)
        #: ordered uplinks, spine-major (set by configure_conga)
        self.uplinks: List[Link] = []
        self.cables_per_pair = 1
        #: IPs of hosts attached to this leaf
        self.local_ips: set = set()
        #: remote host ip -> destination leaf name
        self.leaf_of: Dict[int, str] = {}
        #: congestion-to-leaf: dst leaf -> [metric per path] (+ timestamps)
        self.to_table: Dict[str, List[float]] = {}
        #: congestion-from-leaf: src leaf -> [metric per path] (+ timestamps)
        self.from_table: Dict[str, List[float]] = {}
        self._table_times: Dict[int, List[float]] = {}
        self._fb_rotation: Dict[str, int] = {}
        #: flowlet table: flow key -> (path, last_seen)
        self._flowlets: Dict[Tuple, Tuple[int, float]] = {}
        self.flowlets_created = 0

    # ------------------------------------------------------------------
    def _n_paths(self) -> int:
        return len(self.uplinks)

    #: stale remote metrics decay with this time constant; without aging a
    #: path once reported hot would repel (or trap) flowlets forever
    METRIC_AGING = 1e-3

    def _table_row(self, table: Dict[str, List[float]], leaf: str) -> List[float]:
        row = table.get(leaf)
        if row is None:
            row = [0.0] * self._n_paths()
            table[leaf] = row
            self._table_times[id(row)] = [-1.0] * self._n_paths()
        return row

    def _row_times(self, row: List[float]) -> List[float]:
        return self._table_times.setdefault(id(row), [-1.0] * len(row))

    def _store_metric(self, row: List[float], index: int, value: float) -> None:
        row[index] = value
        self._row_times(row)[index] = self.sim.now

    def _aged_metric(self, row: List[float], index: int) -> float:
        stamped = self._row_times(row)[index]
        if stamped < 0:
            return row[index]
        return row[index] * math.exp(-(self.sim.now - stamped) / self.METRIC_AGING)

    # ------------------------------------------------------------------
    def forward(self, packet: Packet, link_in) -> None:
        key = packet.outer if packet.outer is not None else packet.inner
        if key.dst_ip in self.local_ips:
            self._as_destination_leaf(packet)
            super().forward(packet, link_in)
            return
        dst_leaf = self.leaf_of.get(key.dst_ip)
        if dst_leaf is None or not self.uplinks:
            super().forward(packet, link_in)   # not fabric traffic we manage
            return
        self._as_source_leaf(packet, key, dst_leaf)
        # Note: super().forward would re-hash; we transmit directly.

    def _as_source_leaf(self, packet: Packet, key: FlowKey, dst_leaf: str) -> None:
        path = self._flowlet_path(key, dst_leaf)
        uplink = self.uplinks[path]
        if not uplink.up:
            live = [i for i, l in enumerate(self.uplinks) if l.up]
            if not live:
                self.blackholed += 1
                return
            path = self.rng.choice(live)
            uplink = self.uplinks[path]
        packet.meta[LBTAG] = path
        packet.meta[CE] = 0.0
        packet.meta[SRC_LEAF] = self.name
        self._attach_feedback(packet, dst_leaf)
        self.on_egress(packet, uplink)
        uplink.send(packet)

    def _flowlet_path(self, key: FlowKey, dst_leaf: str) -> int:
        now = self.sim.now
        fkey = key.as_tuple()
        entry = self._flowlets.get(fkey)
        if entry is not None and now - entry[1] <= self.flowlet_gap:
            self._flowlets[fkey] = (entry[0], now)
            return entry[0]
        previous = entry[0] if entry is not None else None
        path = self._best_path(dst_leaf, previous)
        self._flowlets[fkey] = (path, now)
        self.flowlets_created += 1
        return path

    #: a new flowlet keeps its flow's previous path unless a strictly
    #: better one beats it by this margin (CONGA keeps flowlets sticky to
    #: avoid needless path churn and the reordering it causes)
    HYSTERESIS = 0.02

    def _best_path(self, dst_leaf: str, previous: Optional[int] = None) -> int:
        """argmin over paths of max(local uplink DRE, remote metric)."""
        now = self.sim.now
        remote = self._table_row(self.to_table, dst_leaf)

        def metric(i: int) -> float:
            return max(self.uplinks[i].dre.utilization(now),
                       self._aged_metric(remote, i))

        best_metric = None
        best: List[int] = []
        for i, uplink in enumerate(self.uplinks):
            if not uplink.up:
                continue
            value = metric(i)
            if best_metric is None or value < best_metric - 1e-12:
                best_metric = value
                best = [i]
            elif abs(value - best_metric) <= 1e-12:
                best.append(i)
        if not best:
            return 0
        if (
            previous is not None
            and self.uplinks[previous].up
            and metric(previous) <= best_metric + self.HYSTERESIS
        ):
            return previous
        return self.rng.choice(best)

    def _attach_feedback(self, packet: Packet, dst_leaf: str) -> None:
        """Piggyback one entry of our from-table row about ``dst_leaf``."""
        row = self.from_table.get(dst_leaf)
        if not row:
            return
        index = self._fb_rotation.get(dst_leaf, 0) % len(row)
        packet.meta[FB_TAG] = index
        packet.meta[FB_METRIC] = self._aged_metric(row, index)
        self._fb_rotation[dst_leaf] = index + 1

    def _as_destination_leaf(self, packet: Packet) -> None:
        src_leaf = packet.meta.pop(SRC_LEAF, None)
        if src_leaf is None:
            return
        lbtag = packet.meta.pop(LBTAG, None)
        ce = packet.meta.pop(CE, None)
        if lbtag is not None and ce is not None:
            row = self._table_row(self.from_table, src_leaf)
            if lbtag < len(row):
                self._store_metric(row, lbtag, ce)
        fbtag = packet.meta.pop(FB_TAG, None)
        fbmetric = packet.meta.pop(FB_METRIC, None)
        if fbtag is not None and fbmetric is not None:
            row = self._table_row(self.to_table, src_leaf)
            if fbtag < len(row):
                self._store_metric(row, fbtag, fbmetric)

    on_egress = _stamp_ce


class CongaSpineSwitch(Switch):
    """Spine honouring the leaf's path choice via the LBTag cable ordinal."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.cables_per_pair = 1

    def select_port(self, packet: Packet, key: FlowKey, live: List[Link], link_in) -> Link:
        lbtag = packet.meta.get(LBTAG)
        if lbtag is not None:
            return live[lbtag % len(live)]
        return super().select_port(packet, key, live, link_in)

    on_egress = _stamp_ce


def configure_conga(net: Network, flowlet_gap: Optional[float] = None) -> None:
    """Wire up CONGA state on a leaf-spine :class:`Network`.

    Expects leaves named ``L*`` (built with ``switch_class=CongaLeafSwitch``)
    and spines named ``S*`` (``CongaSpineSwitch``); fills in uplink lists,
    local/remote IP maps and cable counts, and gives every switch egress
    link the DRE the switches read.
    """
    leaves = {n: s for n, s in net.switches.items() if isinstance(s, CongaLeafSwitch)}
    spines = {n: s for n, s in net.switches.items() if isinstance(s, CongaSpineSwitch)}
    if not leaves or not spines:
        raise ValueError("configure_conga needs CONGA leaf and spine switches")
    host_leaf = {ip: leaf for _h, (ip, leaf) in net.hosts.items()}
    for name, leaf in leaves.items():
        uplinks: List[Link] = []
        cables = 0
        for spine_name in sorted(spines):
            group = net.links_between(name, spine_name)
            cables = max(cables, len(group))
            uplinks.extend(group)
        leaf.uplinks = uplinks
        leaf.cables_per_pair = cables
        leaf.local_ips = {ip for ip, l in host_leaf.items() if l == name}
        leaf.leaf_of = {ip: l for ip, l in host_leaf.items() if l != name}
        if flowlet_gap is not None:
            leaf.flowlet_gap = flowlet_gap
    for spine in spines.values():
        spine.cables_per_pair = max(
            len(net.links_between(spine.name, leaf_name)) for leaf_name in leaves
        )
    for (src, _dst), group in net.links.items():
        if src in net.switches:
            for link in group:
                link.track_utilization()


def set_flowlet_gaps(net: Network, flowlet_gap: float) -> None:
    """Wire CONGA onto a built fabric at 3x the edge flowlet gap: CONGA's
    paper tunes a larger gap than Clove's (its in-switch path changes
    reorder more aggressively), and 3x matches its testbed's relative to RTT."""
    configure_conga(net, flowlet_gap=3 * flowlet_gap)
