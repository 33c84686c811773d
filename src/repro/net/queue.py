"""Drop-tail egress buffer with threshold ECN marking.

This mirrors the behaviour the paper relies on from commodity (Broadcom)
switches: a FIFO per egress port with a fixed capacity, marking CE on
packets that arrive to find the instantaneous queue length above a
configured threshold (DCTCP-style marking-on-enqueue).

A :class:`DropTailQueue` is the port's configuration, its FIFO and its
counters (drops, ECN marks, peak occupancy, cumulative queueing delay).
The rules that fill and drain it — admission at enqueue, eviction when
serialization starts — live once, in :class:`~repro.net.link.Link`, which
owns the queue: each FIFO entry also carries the packet's transmit plan.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.net.packet import Packet
from repro.sim.engine import Event

#: one queued packet: (packet, enqueued at, serialization start,
#: serialization end, delivery event)
Entry = Tuple[Packet, float, float, float, Event]


class QueueStats:
    """Counters exported by every queue (read by the metrics collector)."""

    __slots__ = ("enqueued", "dropped", "probe_dropped", "ecn_marked",
                 "dequeued", "peak_packets", "peak_bytes",
                 "total_queue_delay")

    def __init__(self) -> None:
        self.enqueued = 0
        self.dropped = 0
        #: measurement traffic (traceroute/health probes and their replies)
        #: discarded by a dead link — kept out of ``dropped`` so fault
        #: blackhole accounting only counts losses that force data
        #: retransmissions
        self.probe_dropped = 0
        self.ecn_marked = 0
        self.dequeued = 0
        self.peak_packets = 0
        self.peak_bytes = 0
        self.total_queue_delay = 0.0


class DropTailQueue:
    """Bounded FIFO with ECN marking above ``ecn_threshold_packets``.

    ``capacity_packets`` bounds occupancy in packets (the unit the paper's
    thresholds are quoted in: "20 MTU-sized packets").
    """

    __slots__ = ("capacity_packets", "ecn_threshold_packets", "_items",
                 "byte_count", "stats")

    def __init__(
        self,
        capacity_packets: int = 200,
        ecn_threshold_packets: Optional[int] = 20,
    ) -> None:
        if capacity_packets <= 0:
            raise ValueError("queue capacity must be positive")
        self.capacity_packets = capacity_packets
        self.ecn_threshold_packets = ecn_threshold_packets
        self._items: Deque[Entry] = deque()
        self.byte_count = 0
        self.stats = QueueStats()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_empty(self) -> bool:
        return not self._items
