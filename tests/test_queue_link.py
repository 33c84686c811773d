"""Unit tests for drop-tail queues and links."""

import pytest

from repro.net.link import Link
from repro.net.packet import FlowKey, Packet
from repro.net.queue import DropTailQueue
from repro.sim.engine import Simulator

from tests.conftest import make_data_packet


def _packet(payload=1460, ect=False):
    packet = make_data_packet(FlowKey(1, 2, 3, 4), 0, payload, 0.0)
    packet.ect = ect
    return packet


def _port(capacity, threshold, rate_bps=1e9):
    """A link whose queue is the one under test (its only way to fill)."""
    link = Link(Simulator(), "l", rate_bps=rate_bps, delay_s=0.0,
                queue=DropTailQueue(capacity, threshold))
    link.connect(lambda p, _link: None)
    return link


class TestDropTailQueue:
    """The egress buffer, filled and drained by the link that owns it.

    Sends at one instant: the first packet starts serializing at once and
    leaves the buffer at the next operation on the port; the rest wait.
    """

    def test_fifo_order(self):
        link = _port(capacity=10, threshold=None)
        delivered = []
        link.connect(lambda p, _link: delivered.append(p))
        first, second = _packet(), _packet()
        link.send(first)
        link.send(second)
        link.sim.run()
        assert delivered == [first, second]
        assert link.queue.is_empty

    def test_drop_when_full(self):
        link = _port(capacity=2, threshold=None)
        # One on the wire, two waiting: the fourth finds the buffer full.
        assert link.send(_packet())
        assert link.send(_packet())
        assert link.send(_packet())
        assert not link.send(_packet())
        assert link.queue.stats.dropped == 1
        assert link.queue.stats.enqueued == 3
        assert len(link.queue) == 2

    def test_ecn_marked_above_threshold_for_ect_packets(self):
        link = _port(capacity=100, threshold=2)
        packets = [_packet(ect=True) for _ in range(5)]
        for packet in packets:
            link.send(packet)
        # Packets 0-2 found 0, 0 (packet 0 had left) and 1 waiting.
        assert not any(packet.ce for packet in packets[:3])
        assert packets[3].ce and packets[4].ce
        assert link.queue.stats.ecn_marked == 2

    def test_non_ect_packets_never_marked(self):
        link = _port(capacity=100, threshold=0)
        packet = _packet(ect=False)
        link.send(packet)
        assert not packet.ce
        marked = _packet(ect=True)
        link.send(marked)
        assert marked.ce

    def test_byte_count_tracks_contents(self):
        link = _port(capacity=10, threshold=None)
        packet = _packet()
        link.send(packet)
        assert link.queue.byte_count == packet.size
        link.sync()           # it started at once: evicted
        assert link.queue.byte_count == 0

    def test_queue_delay_accounting(self):
        packet = _packet()
        # The first packet occupies the serializer for exactly 2.5 s.
        link = _port(capacity=10, threshold=None, rate_bps=packet.size * 8 / 2.5)
        link.send(packet)
        link.send(_packet())
        link.sim.run()
        link.sync()
        assert link.queue.stats.total_queue_delay == pytest.approx(2.5)
        assert link.queue.stats.dequeued == 2

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            DropTailQueue(capacity_packets=0)


class TestLink:
    def test_serialization_plus_propagation_delay(self):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=1e9, delay_s=10e-6)
        arrivals = []
        link.connect(lambda p, _link: arrivals.append(sim.now))
        packet = _packet(payload=1460)  # 1500B on wire
        link.send(packet)
        sim.run()
        expected = packet.size * 8 / 1e9 + 10e-6
        assert arrivals == [pytest.approx(expected)]

    def test_back_to_back_packets_serialize(self):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=1e9, delay_s=0.0)
        arrivals = []
        link.connect(lambda p, _link: arrivals.append(sim.now))
        a, b = _packet(), _packet()
        link.send(a)
        link.send(b)
        sim.run()
        tx = a.size * 8 / 1e9
        assert arrivals[0] == pytest.approx(tx)
        assert arrivals[1] == pytest.approx(2 * tx)

    def test_down_link_discards(self):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=1e9, delay_s=0.0)
        arrivals = []
        link.connect(lambda p, _link: arrivals.append(p))
        link.fail()
        assert not link.send(_packet())
        sim.run()
        assert arrivals == []

    def test_fail_flushes_queue(self):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=1e9, delay_s=0.0)
        link.connect(lambda p, _link: None)
        link.send(_packet())
        link.send(_packet())
        link.fail()
        assert link.queue.is_empty

    def test_recover_resumes_transmission(self):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=1e9, delay_s=0.0)
        arrivals = []
        link.connect(lambda p, _link: arrivals.append(p))
        link.fail()
        link.recover()
        assert link.send(_packet())
        sim.run()
        assert len(arrivals) == 1

    def test_tx_counters(self):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=1e9, delay_s=0.0)
        link.connect(lambda p, _link: None)
        packet = _packet()
        link.send(packet)
        sim.run()
        assert link.tx_packets == 1
        assert link.tx_bytes == packet.size

    def test_dre_sees_traffic(self):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=1e9, delay_s=0.0)
        link.connect(lambda p, _link: None)
        assert link.track_utilization() is link.track_utilization()
        for _ in range(50):
            link.send(_packet())
        sim.run(until=1e-5)
        assert link.utilization() > 0.0

    def test_untracked_link_has_no_utilization(self):
        link = Link(Simulator(), "S1->L2#0", rate_bps=1e9, delay_s=0.0)
        assert link.dre is None
        with pytest.raises(RuntimeError, match="S1->L2#0"):
            link.utilization()

    def test_invalid_params(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, "l", rate_bps=0, delay_s=0.0)
        with pytest.raises(ValueError):
            Link(sim, "l", rate_bps=1e9, delay_s=-1.0)
