"""LetFlow baseline: in-switch flowlets hashed to a random next hop.

Section 8 discusses LetFlow as the hardware sibling of Edge-Flowlet: each
switch keeps a flowlet table, and every *new* flowlet picks a uniformly
random member of the ECMP group, with no congestion state at all.  Provided
here as an extra comparison point (it needs new switch hardware; the paper's
point is that Edge-Flowlet achieves the same at the hypervisor).
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.net.link import Link
from repro.net.packet import FlowKey, Packet
from repro.net.switch import Switch
from repro.topology.network import Network


class LetFlowSwitch(Switch):
    """ECMP switch whose hash choice re-randomizes per flowlet."""

    def __init__(self, *args, flowlet_gap: float = 400e-6, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.flowlet_gap = flowlet_gap
        self.rng = random.Random(self.hasher.seed ^ 0x1E7F)
        #: flow 5-tuple -> (chosen link name, last seen)
        self._flowlets: Dict[Tuple, Tuple[str, float]] = {}
        self.flowlets_created = 0

    def select_port(self, packet: Packet, key: FlowKey, live: List[Link], link_in) -> Link:
        now = self.sim.now
        fkey = key.as_tuple()
        entry = self._flowlets.get(fkey)
        if entry is not None and now - entry[1] <= self.flowlet_gap:
            for link in live:
                if link.name == entry[0]:
                    self._flowlets[fkey] = (entry[0], now)
                    return link
        choice = self.rng.choice(live)
        self._flowlets[fkey] = (choice.name, now)
        self.flowlets_created += 1
        return choice


def set_flowlet_gaps(net: Network, flowlet_gap: float) -> None:
    """Every switch of a built fabric uses the edge schemes' flowlet gap."""
    for switch in net.switches.values():
        switch.flowlet_gap = flowlet_gap
