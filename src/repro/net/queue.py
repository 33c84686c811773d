"""Drop-tail egress buffer with threshold ECN marking.

This mirrors the behaviour the paper relies on from commodity (Broadcom)
switches: a FIFO per egress port with a fixed capacity, marking CE on
packets that arrive to find the instantaneous queue length above a
configured threshold (DCTCP-style marking-on-enqueue).

A :class:`DropTailQueue` is the port's configuration, its FIFO and its
counters (drops, ECN marks, peak occupancy, cumulative queueing delay).
The rules that fill and drain it — admission at enqueue, eviction when
serialization starts — live once, in :class:`~repro.net.link.Link`, which
owns the queue: each FIFO entry also carries the packet's transmit plan
and the running admission totals up to and including it, so the dequeue
side is never counted: it is read off the last entry evicted
(:class:`PortStats`).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.net.packet import Packet
from repro.sim.engine import Event

#: one queued packet: (packet, enqueued at, serialization start,
#: serialization end, delivery event), then the running admission totals
#: up to and including it: packets, bytes, queueing wait (start - enqueued)
Entry = Tuple[Packet, float, float, float, Event, int, int, float]

#: the totals before the first admission, in an entry's shape
_ORIGIN: Entry = (None, 0.0, 0.0, 0.0, None, 0, 0, 0.0)  # type: ignore[assignment]


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


class PortStats(QueueStats):
    """The counters of a link's egress queue.

    Admission counts as :class:`QueueStats` does; the dequeue side is read
    from :attr:`evicted`, the last entry the link evicted, whose running
    totals cover every packet that ever left the FIFO (FIFO order: whatever
    left was admitted no later than it).  A flush re-seeds it with the
    exact totals (:meth:`repro.net.link.Link.fail`).
    """

    __slots__ = ("evicted",)

    def __init__(self) -> None:
        self.enqueued = self.dropped = self.probe_dropped = 0
        self.ecn_marked = self.peak_packets = self.peak_bytes = 0
        self.evicted: Entry = _ORIGIN

    @property
    def dequeued(self) -> int:  # type: ignore[override]
        return self.evicted[5]

    @property
    def total_queue_delay(self) -> float:  # type: ignore[override]
        return self.evicted[7]


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
        self.stats = PortStats()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_empty(self) -> bool:
        return not self._items
