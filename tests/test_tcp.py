"""Tests for the TCP NewReno model: delivery, congestion response, recovery."""

import pytest

from repro.net.packet import MSS
from repro.transport.tcp import FLAG_ECE, open_connection

from tests.conftest import make_ack_packet, make_data_packet, make_fabric


def _open(hosts, a="h1_0", b="h2_0", **kwargs):
    return open_connection(hosts[a], hosts[b], 10000, 80, **kwargs)


class TestBasicTransfer:
    def test_small_flow_delivered_in_order(self, fabric):
        sim, net, hosts = fabric
        connection = _open(hosts)
        done = []
        connection.start_flow(10_000, lambda: done.append(sim.now))
        sim.run(until=1.0)
        assert done, "flow did not complete"
        assert connection.receiver.rcv_nxt == 10_000
        assert connection.sender.done

    def test_large_flow_delivered(self, fabric):
        sim, net, hosts = fabric
        connection = _open(hosts)
        done = []
        connection.start_flow(2_000_000, lambda: done.append(sim.now))
        sim.run(until=5.0)
        assert done
        assert connection.receiver.rcv_nxt == 2_000_000

    def test_sequential_jobs_complete_in_order(self, fabric):
        sim, net, hosts = fabric
        connection = _open(hosts)
        completions = []
        connection.start_flow(50_000, lambda: completions.append("a"))
        connection.start_flow(50_000, lambda: completions.append("b"))
        sim.run(until=1.0)
        assert completions == ["a", "b"]

    def test_single_byte_flow(self, fabric):
        sim, net, hosts = fabric
        connection = _open(hosts)
        done = []
        connection.start_flow(1, lambda: done.append(True))
        sim.run(until=1.0)
        assert done

    def test_throughput_approaches_line_rate(self, fabric):
        sim, net, hosts = fabric
        connection = _open(hosts)
        done = []
        size = 5_000_000
        connection.start_flow(size, lambda: done.append(sim.now))
        sim.run(until=5.0)
        assert done
        goodput = size * 8 / done[0]
        # Host links are 10G; expect at least 60% of line rate end-to-end.
        assert goodput > 6e9

    def test_slow_start_doubles_window(self, fabric):
        sim, net, hosts = fabric
        connection = _open(hosts)
        sender = connection.sender
        initial = sender.cwnd
        connection.start_flow(1_000_000, lambda: None)
        sim.run(until=0.01)
        assert sender.cwnd > 2 * initial

    def test_invalid_send_rejected(self, fabric):
        sim, net, hosts = fabric
        connection = _open(hosts)
        with pytest.raises(ValueError):
            connection.sender.send(0)


class TestLossRecovery:
    def _lossy_fabric(self):
        # Tiny queues force drops under a burst.
        return make_fabric(queue_capacity_packets=8, ecn_threshold_packets=None)

    def test_completes_despite_drops(self):
        sim, net, hosts = self._lossy_fabric()
        # Two senders share h2_0's access link: its 8-packet egress queue
        # must overflow, forcing loss recovery.
        a = _open(hosts, "h1_0", "h2_0")
        b = _open(hosts, "h1_1", "h2_0")
        done = []
        a.start_flow(1_000_000, lambda: done.append("a"))
        b.start_flow(1_000_000, lambda: done.append("b"))
        sim.run(until=10.0)
        assert sorted(done) == ["a", "b"]
        retransmissions = sum(
            c.sender.fast_retransmits + c.sender.timeouts for c in (a, b)
        )
        assert retransmissions > 0

    def test_fast_retransmit_on_triple_dupack(self, fabric):
        sim, net, hosts = fabric
        connection = _open(hosts)
        sender = connection.sender
        sender.send(10000 * MSS)
        sim.run(until=2e-6)  # initial burst left, nothing acked yet
        assert sender.flight_size > 0
        # Forge three duplicate ACKs at the current snd_una.
        flow = sender.flow.reversed()
        before = sender.fast_retransmits
        for _ in range(3):
            sender.on_packet(make_ack_packet(flow, sender.snd_una, sim.now))
        assert sender.fast_retransmits == before + 1
        assert sender.in_recovery

    def test_ssthresh_halved_on_recovery(self, fabric):
        sim, net, hosts = fabric
        connection = _open(hosts)
        sender = connection.sender
        sender.send(10000 * MSS)
        sim.run(until=2e-6)
        flight = sender.flight_size
        assert flight > 0
        flow = sender.flow.reversed()
        for _ in range(3):
            sender.on_packet(make_ack_packet(flow, sender.snd_una, sim.now))
        assert sender.ssthresh == pytest.approx(max(flight / 2, 2 * MSS))

    def test_rto_fires_when_all_acks_lost(self):
        sim, net, hosts = make_fabric()
        connection = _open(hosts)
        sender = connection.sender
        # Cut the network after the initial burst leaves.
        connection.start_flow(100 * MSS, lambda: None)
        sim.run(until=1e-5)
        net.fail_cable("h1_0", "L1")
        sim.run(until=0.5)
        assert sender.timeouts >= 1
        assert sender.cwnd == pytest.approx(float(MSS))

    def test_rto_backoff_grows(self):
        sim, net, hosts = make_fabric()
        connection = _open(hosts)
        sender = connection.sender
        connection.start_flow(100 * MSS, lambda: None)
        sim.run(until=1e-5)
        net.fail_cable("h1_0", "L1")
        sim.run(until=1.0)
        assert sender.backoff > 1

    def test_recovery_after_link_restored(self):
        sim, net, hosts = make_fabric()
        connection = _open(hosts)
        done = []
        connection.start_flow(50 * MSS, lambda: done.append(sim.now))
        sim.run(until=1e-5)
        net.fail_cable("h1_0", "L1")
        sim.run(until=0.1)
        net.recover_cable("h1_0", "L1")
        sim.run(until=5.0)
        assert done


class TestEcnResponse:
    def test_ece_halves_cwnd_once_per_window(self, fabric):
        sim, net, hosts = fabric
        connection = _open(hosts)
        sender = connection.sender
        sender.send(100_000_000)  # stays in flight throughout the test
        sim.run(until=0.001)
        cwnd = sender.cwnd
        flow = sender.flow.reversed()
        ack = make_ack_packet(flow, sender.snd_una + MSS, sim.now, flags=FLAG_ECE)
        sender.on_packet(ack)
        assert sender.cwnd < cwnd
        assert sender.ecn_reductions == 1
        # A second ECE within the same window must not reduce again.
        ack2 = make_ack_packet(flow, sender.snd_una + MSS, sim.now, flags=FLAG_ECE)
        sender.on_packet(ack2)
        assert sender.ecn_reductions == 1

    def test_receiver_latches_ece_until_cwr(self, fabric):
        sim, net, hosts = fabric
        connection = _open(hosts)
        receiver = connection.receiver
        receiver.ece_latched = True
        # Latch persists across ACKs until a CWR-marked segment arrives.
        data = make_data_packet(receiver.flow, 0, 100, 0.0, flags="W")
        receiver.on_packet(data)
        assert not receiver.ece_latched


class TestReceiverReassembly:
    def test_out_of_order_segments_reassembled(self, fabric):
        sim, net, hosts = fabric
        receiver = _open(hosts).receiver
        flow = receiver.flow
        receiver.on_packet(make_data_packet(flow, 1460, 1460, 0.0))
        assert receiver.rcv_nxt == 0
        assert receiver.ooo_packets == 1
        receiver.on_packet(make_data_packet(flow, 0, 1460, 0.0))
        assert receiver.rcv_nxt == 2920

    def test_duplicate_segment_ignored(self, fabric):
        sim, net, hosts = fabric
        receiver = _open(hosts).receiver
        flow = receiver.flow
        receiver.on_packet(make_data_packet(flow, 0, 1460, 0.0))
        receiver.on_packet(make_data_packet(flow, 0, 1460, 0.0))
        assert receiver.rcv_nxt == 1460

    def test_overlapping_segments_merge(self, fabric):
        sim, net, hosts = fabric
        receiver = _open(hosts).receiver
        flow = receiver.flow
        receiver.on_packet(make_data_packet(flow, 2920, 1460, 0.0))
        receiver.on_packet(make_data_packet(flow, 1460, 2920, 0.0))  # overlaps
        receiver.on_packet(make_data_packet(flow, 0, 1460, 0.0))
        assert receiver.rcv_nxt == 4380

    def test_threshold_fires_exactly_once(self, fabric):
        sim, net, hosts = fabric
        receiver = _open(hosts).receiver
        fired = []
        receiver.add_threshold(1460, lambda: fired.append(1))
        receiver.on_packet(make_data_packet(receiver.flow, 0, 1460, 0.0))
        receiver.on_packet(make_data_packet(receiver.flow, 1460, 1460, 0.0))
        assert fired == [1]

    def test_threshold_already_met_fires_immediately(self, fabric):
        sim, net, hosts = fabric
        receiver = _open(hosts).receiver
        receiver.on_packet(make_data_packet(receiver.flow, 0, 1460, 0.0))
        fired = []
        receiver.add_threshold(1000, lambda: fired.append(1))
        assert fired == [1]


class TestRttEstimation:
    def test_srtt_converges_to_path_rtt(self, fabric):
        sim, net, hosts = fabric
        connection = _open(hosts)
        connection.start_flow(500_000, lambda: None)
        sim.run(until=0.01)
        sender = connection.sender
        assert sender.srtt is not None
        assert 1e-6 < sender.srtt < 1e-3

    def test_rto_at_least_min_rto(self, fabric):
        sim, net, hosts = fabric
        connection = _open(hosts, min_rto=0.123)
        connection.start_flow(100_000, lambda: None)
        sim.run(until=0.01)
        assert connection.sender.rto >= 0.123
