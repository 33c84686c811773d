"""Point-to-point links with serialization and propagation delay.

A :class:`Link` is unidirectional: it drains one egress queue of the node at
its transmit side and delivers packets to the receive handler of the node at
the far side.  Bidirectional cables are simply two ``Link`` objects.

Each link owns:

* a :class:`~repro.net.queue.DropTailQueue` (the egress buffer of the port),
* a virtual-clock transmitter (one packet in flight at a time —
  store-and-forward),
* when some reader asked for one (:meth:`Link.track_utilization`), a
  :class:`~repro.net.dre.DiscountingRateEstimator` — CONGA's switches, INT
  stamping and the time-series sampler read it; no other run pays for
  it — and
* an up/down flag so experiments can fail links to create asymmetry.

The transmitter keeps a *virtual serializer clock* (``_free_at``) instead of
an event chain: a packet admitted at ``t`` starts serializing at
``start = max(t, _free_at)``, ends at ``end = start + size/rate`` and is
delivered ``delay_s`` later — all computed at admission, so the whole hop
costs one simulator event (the delivery) instead of the three a
start/finish/deliver chain pays.

Every admitted packet is one FIFO entry ``(packet, enqueued_at, start, end,
delivery_event)`` in the queue.  :meth:`Link.send` is the one admission
rule (capacity drop, ECN mark-on-enqueue, occupancy counters) and
:meth:`Link._settle` the one eviction rule (byte count, dequeue count,
queueing delay, tx counters).  Entries stay queued until their
serialization start passes and are evicted lazily — at the next admission
(so occupancy/ECN decisions see exactly the store-and-forward waiting set),
at the next delivery (so the conservation ledger never observes a delivery
outrunning its dequeue) or on :meth:`Link.sync`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.net.dre import DiscountingRateEstimator
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue, Entry
from repro.sim.engine import Simulator

#: the far-side handler: ``receive(packet, link)`` (switches and hosts alike)
ReceiveFn = Callable[[Packet, "Link"], None]

#: columns of a queue entry that :meth:`Link._settle` can evict by (the
#: per-packet paths spell ``[2]`` inline, saving a global lookup per hop)
_START = 2
_END = 3
_NEVER = float("inf")


class Link:
    """Unidirectional link: ``src_name`` -> ``dst_name``."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        rate_bps: float,
        delay_s: float,
        queue: Optional[DropTailQueue] = None,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        if delay_s < 0:
            raise ValueError("propagation delay cannot be negative")
        self.sim = sim
        self.name = name
        self.rate_bps = rate_bps
        #: the as-built rate; degradations scale relative to this, and
        #: restoration returns to exactly this value (no multiply-back drift)
        self.nominal_rate_bps = rate_bps
        self.delay_s = delay_s
        self.queue = queue if queue is not None else DropTailQueue()
        #: utilization estimator; None until a reader calls
        #: :meth:`track_utilization`
        self.dre: Optional[DiscountingRateEstimator] = None
        self.up = True
        #: sim time of the most recent :meth:`fail` (-inf = never failed);
        #: switches with a non-zero failover delay consult this to keep a
        #: recently-dead link in their ECMP groups (stale hardware state)
        self.down_since = float("-inf")
        #: when the serializer finishes its last accepted packet
        self._free_at = 0.0
        self._receive: Optional[ReceiveFn] = None
        # Counters.
        self.tx_packets = 0
        self.tx_bytes = 0
        #: packets handed to the far-side receive handler
        self.rx_delivered = 0
        #: packets that were on the wire when the link died (the only loss
        #: on a link that is not a counted queue drop)
        self.lost_in_flight = 0
        #: queued packets discarded by :meth:`fail` (also in stats.dropped)
        self.flushed_packets = 0

    #: telemetry hooks; instances overwrite these via :meth:`attach_telemetry`
    #: (class attributes keep the uninstrumented path to one ``is None`` test)
    _tel_events = None
    _tel_drops = None
    _tel_marks = None

    #: global liveness generation, bumped by every :meth:`fail` /
    #: :meth:`recover` on any link; switches key their cached live ECMP
    #: member lists on it, so the caches invalidate exactly when some
    #: link's ``up`` flag flips
    state_gen = 0

    def attach_telemetry(self, telemetry) -> None:
        """Bind this link's hot-path drop/mark hooks to a telemetry scope."""
        self._tel_events = telemetry.events
        self._tel_drops = telemetry.registry.counter("switch.drop", link=self.name)
        self._tel_marks = telemetry.registry.counter("switch.ecn_mark", link=self.name)

    def track_utilization(self) -> DiscountingRateEstimator:
        """Attach a rate estimator (idempotent) and return it.

        Every reader of :meth:`utilization` calls this before the first
        packet moves, so the estimator sees the link's whole history.
        """
        if self.dre is None:
            self.dre = DiscountingRateEstimator(self.rate_bps)
        return self.dre

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def connect(self, receive: ReceiveFn) -> None:
        """Set the far-side receive handler (done by the topology builder)."""
        self._receive = receive

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Offer a packet to the egress queue; returns ``False`` when it was
        dropped (queue full or link down).  A down link silently discards
        traffic, matching a dead cable.
        """
        if not self.up:
            meta = packet.meta
            if meta and ("probe" in meta or "probe_reply" in meta or "icmp" in meta):
                self.queue.stats.probe_dropped += 1
            else:
                self.queue.stats.dropped += 1
            if self._tel_events is not None:
                self._tel_drops.inc()
                self._tel_events.emit("switch.drop", self.sim.now,
                                      link=self.name, reason="link_down")
            return False
        sim = self.sim
        now = sim.now
        queue = self.queue
        items = queue._items
        # Fold already-started transmissions out of the buffer first, so the
        # occupancy the drop/ECN decision sees is exactly the waiting set a
        # store-and-forward port would hold.
        if items and items[0][2] <= now:
            self._settle(now)
        stats = queue.stats
        depth = len(items)
        if depth >= queue.capacity_packets:
            stats.dropped += 1
            if self._tel_events is not None:
                self._tel_drops.inc()
                self._tel_events.emit("switch.drop", now, link=self.name,
                                      reason="queue_full", depth=depth)
            return False
        # ECN: an ECT packet that finds the queue at or above the threshold
        # is marked (mark-on-enqueue, as DCTCP recommends and the paper's
        # switches were configured to do).
        threshold = queue.ecn_threshold_packets
        if threshold is not None and depth >= threshold and packet.ect:
            stats.ecn_marked += 1
            if not packet.ce:
                packet.ce = True
                if self._tel_events is not None:
                    self._tel_marks.inc()
                    self._tel_events.emit("switch.ecn_mark", now,
                                          link=self.name, depth=depth + 1)
        start = self._free_at
        if start < now:
            start = now
        size = packet.size
        end = start + size * 8.0 / self.rate_bps
        self._free_at = end
        if self.dre is not None:
            self.dre.record(size, start)
        items.append((packet, now, start, end,
                      sim.at(end + self.delay_s, self._deliver, packet)))
        depth += 1
        byte_count = queue.byte_count + size
        queue.byte_count = byte_count
        stats.enqueued += 1
        if depth > stats.peak_packets:
            stats.peak_packets = depth
        if byte_count > stats.peak_bytes:
            stats.peak_bytes = byte_count
        return True

    def _settle(
        self, until: float, column: int = _START, flushed_at: Optional[float] = None,
    ) -> Optional[Entry]:
        """Evict, in FIFO order, every head entry whose ``column`` time
        (serialization start or end) is at or before ``until``.

        A transmitted packet leaves the buffer at its serialization start
        and counts towards ``tx_*``; with ``flushed_at`` the evicted packets
        were discarded at that time instead.  Returns the last entry
        evicted (None when there was none).
        """
        queue = self.queue
        items = queue._items
        stats = queue.stats
        delay = stats.total_queue_delay
        count = nbytes = 0
        entry = None
        while items and items[0][column] <= until:
            entry = items.popleft()
            nbytes += entry[0].size
            delay += (entry[2] if flushed_at is None else flushed_at) - entry[1]
            count += 1
        if entry is not None:
            queue.byte_count -= nbytes
            stats.dequeued += count
            stats.total_queue_delay = delay
            if flushed_at is None:
                self.tx_packets += count
                self.tx_bytes += nbytes
        return entry

    def sync(self) -> None:
        """Fold started-but-unsettled transmissions into the counters.

        The virtual-clock transmitter evicts lazily on the data path;
        out-of-band readers of exact queue occupancy (the audit
        invariants) call this first.
        """
        if self.queue._items:
            self._settle(self.sim.now)

    def _deliver(self, packet: Packet) -> None:
        # Deliveries are FIFO, so settling up to now always evicts this
        # packet's own entry first — keeping ``rx_delivered`` from ever
        # outrunning the queue's dequeue count.
        now = self.sim.now
        items = self.queue._items
        if items and items[0][2] <= now:
            self._settle(now)
        receive = self._receive
        if receive is None:
            self.lost_in_flight += 1
            return
        self.rx_delivered += 1
        receive(packet, self)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def fail(self) -> int:
        """Take the link down; returns how many queued packets were flushed
        (lost).  Emits a ``link.down`` telemetry event when instrumented,
        so fault timelines are recoverable from any event log.

        Packets already past the serializer keep propagating and deliver;
        the packet mid-serialization dies with the link while the port
        still holds it (once an admission, a delivery or :meth:`sync` has
        evicted it, it finishes and delivers); the waiting buffer is
        flushed.
        """
        now = self.sim.now
        self.up = False
        self.down_since = now
        Link.state_gen += 1
        # Fully serialized: normal evictions, deliveries left scheduled.
        self._settle(now, _END)
        # Mid-serialization: counted as transmitted, lost on the wire.
        on_wire = self._settle(now)
        if on_wire is not None:
            on_wire[4].cancel()
            self.lost_in_flight += 1
        # Waiting: flushed, like the buffer of a yanked line card.
        waiting = self.queue._items
        flushed = len(waiting)
        for entry in waiting:
            entry[4].cancel()
        self._settle(_NEVER, flushed_at=now)
        self.queue.stats.dropped += flushed
        self.flushed_packets += flushed
        if self.dre is not None:
            # Their serializations will never happen.
            self.dre.drop_pending_after(now)
        self._free_at = now
        if self._tel_events is not None:
            self._tel_events.emit("link.down", now,
                                  link=self.name, flushed=flushed)
        return flushed

    def recover(self) -> None:
        """Bring the link back up (the buffer is empty after a failure, so
        there is no transmitter to restart)."""
        self.up = True
        self.down_since = float("-inf")
        Link.state_gen += 1
        if self._tel_events is not None:
            self._tel_events.emit("link.up", self.sim.now, link=self.name)

    def set_rate(self, rate_bps: float) -> None:
        """Change the live transmit rate.

        The packet on the wire keeps its old-rate schedule, as hardware
        would; every waiting packet's serialization window — its delivery
        event and its estimator sample — is re-planned at the new rate.
        """
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        self.rate_bps = rate_bps
        dre = self.dre
        if dre is not None:
            dre.rate_bps = rate_bps
        queue = self.queue
        if not queue._items:
            return
        sim = self.sim
        now = sim.now
        # Samples of waiting packets move to their new start times (the
        # estimator must never run ahead of the clock).
        moved = dre.drop_pending_after(now) if dre is not None else 0
        replanned = []
        rebuilt: Deque[Entry] = deque()
        prev_end: Optional[float] = None
        for entry in queue._items:
            packet, enqueued_at, start, end, event = entry
            if start <= now:
                rebuilt.append(entry)
                prev_end = end
                continue
            # The first waiting packet stays anchored to the in-flight
            # packet's (old-rate) end; the rest chain at the new rate.
            new_start = start if prev_end is None else prev_end
            new_end = new_start + packet.size * 8.0 / rate_bps
            if new_start != start or new_end != end:
                event.cancel()
                event = sim.at(new_end + self.delay_s, self._deliver, packet)
            rebuilt.append((packet, enqueued_at, new_start, new_end, event))
            replanned.append((packet.size, new_start))
            prev_end = new_end
        queue._items = rebuilt
        if prev_end is not None:
            self._free_at = prev_end
        if moved:
            for size, start in replanned[len(replanned) - moved:]:
                dre.record(size, start)

    def degrade(self, factor: float) -> None:
        """Run at ``factor`` of the *nominal* rate (repeat calls don't
        compound: the factor is always relative to the as-built rate)."""
        if not 0.0 < factor <= 1.0:
            raise ValueError("factor must be in (0, 1]")
        self.set_rate(self.nominal_rate_bps * factor)

    def restore_rate(self) -> None:
        """Return to exactly the as-built nominal rate."""
        self.set_rate(self.nominal_rate_bps)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def utilization(self) -> float:
        """Instantaneous DRE-estimated utilization (0..~1)."""
        if self.dre is None:
            raise RuntimeError(
                f"link {self.name} tracks no utilization "
                "(call track_utilization() before traffic starts)")
        return self.dre.utilization(self.sim.now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "DOWN"
        return f"Link({self.name}, {self.rate_bps/1e9:.1f}Gbps, {state}, q={len(self.queue)})"
