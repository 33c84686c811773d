"""Tests for the MPTCP model (subflows, LIA coupling, DSN reassembly)."""

import tracemalloc

import pytest

from repro.net.packet import MSS
from repro.transport.mptcp import MptcpConnection, open_mptcp_connection

from tests.conftest import make_fabric


def _open(hosts, n_subflows=4, **kwargs):
    return open_mptcp_connection(
        hosts["h1_0"], hosts["h2_0"], 20000, 80, n_subflows=n_subflows, **kwargs
    )


class TestBasics:
    def test_subflows_have_distinct_tuples(self, fabric):
        sim, net, hosts = fabric
        connection = _open(hosts)
        tuples = {s.flow.as_tuple() for s in connection.senders}
        assert len(tuples) == 4

    def test_flow_completes(self, fabric):
        sim, net, hosts = fabric
        connection = _open(hosts)
        done = []
        connection.start_flow(500_000, lambda: done.append(sim.now))
        sim.run(until=2.0)
        assert done
        assert connection.data_rcv_nxt == 500_000

    def test_data_is_spread_over_subflows(self, fabric):
        sim, net, hosts = fabric
        connection = _open(hosts)
        connection.start_flow(2_000_000, lambda: None)
        sim.run(until=2.0)
        active = [s for s in connection.senders if s.bytes_sent > 0]
        assert len(active) >= 2

    def test_sequential_flows(self, fabric):
        sim, net, hosts = fabric
        connection = _open(hosts)
        order = []
        connection.start_flow(100_000, lambda: order.append("a"))
        connection.start_flow(100_000, lambda: order.append("b"))
        sim.run(until=2.0)
        assert order == ["a", "b"]

    def test_single_subflow_degenerates_to_tcp(self, fabric):
        sim, net, hosts = fabric
        connection = _open(hosts, n_subflows=1)
        done = []
        connection.start_flow(200_000, lambda: done.append(True))
        sim.run(until=2.0)
        assert done

    def test_invalid_subflow_count(self, fabric):
        sim, net, hosts = fabric
        with pytest.raises(ValueError):
            MptcpConnection(sim, n_subflows=0)

    def test_invalid_flow_size(self, fabric):
        sim, net, hosts = fabric
        connection = _open(hosts)
        with pytest.raises(ValueError):
            connection.start_flow(0, lambda: None)


class TestDsnReassembly:
    def test_out_of_order_dsn_completion(self, fabric):
        sim, net, hosts = fabric
        connection = _open(hosts)
        fired = []
        connection.start_flow(10 * MSS, lambda: fired.append(True))
        # Simulate out-of-order data-level arrival directly.
        connection.on_data_received(5 * MSS, 5 * MSS)
        assert not fired
        connection.on_data_received(0, 5 * MSS)
        assert fired

    def test_duplicate_data_ignored(self, fabric):
        sim, net, hosts = fabric
        connection = _open(hosts)
        connection.start_flow(10 * MSS, lambda: None)
        connection.on_data_received(0, MSS)
        before = connection.data_rcv_nxt
        connection.on_data_received(0, MSS)
        assert connection.data_rcv_nxt == before

    def test_dsn_mapping_is_consistent(self, fabric):
        sim, net, hosts = fabric
        connection = _open(hosts)
        connection.start_flow(100 * MSS, lambda: None)
        sim.run(until=0.001)
        for sender in connection.senders:
            for sf_start, dsn_start, length in sender._mappings:
                assert sender._spans_for(sf_start, length) == [(dsn_start, length)]
                if length > 1:
                    assert sender._spans_for(sf_start + length - 1, 1) == [
                        (dsn_start + length - 1, 1)]

    def test_span_lookup_does_not_copy_the_mappings(self, fabric):
        # the receiver looks spans up once per data segment: a lookup that
        # builds a list of every mapping start makes a long subflow quadratic
        sim, net, hosts = fabric
        sender = _open(hosts).senders[0]
        for i in range(50_000):
            sender.assign(2 * i * MSS, MSS)
        tracemalloc.start()
        try:
            for i in range(1000):
                assert sender._spans_for(i * 50 * MSS, MSS) == [
                    (100 * i * MSS, MSS)]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak


class TestLia:
    def test_alpha_positive(self, fabric):
        sim, net, hosts = fabric
        connection = _open(hosts)
        connection.start_flow(1_000_000, lambda: None)
        sim.run(until=0.01)
        assert connection.lia_alpha() > 0

    def test_coupled_increase_not_faster_than_uncoupled(self, fabric):
        sim, net, hosts = fabric
        connection = _open(hosts)
        connection.start_flow(1_000_000, lambda: None)
        sim.run(until=0.001)
        sender = connection.senders[0]
        sender.ssthresh = 0.0  # force congestion avoidance
        cwnd = sender.cwnd
        sender._increase_cwnd(MSS)
        # LIA's min() clause: growth never exceeds standard AIMD growth.
        assert sender.cwnd - cwnd <= MSS * MSS / cwnd + 1e-9

    def test_total_cwnd_sums_subflows(self, fabric):
        sim, net, hosts = fabric
        connection = _open(hosts)
        assert connection.total_cwnd() == pytest.approx(
            sum(s.cwnd for s in connection.senders)
        )


class TestStaticMapping:
    def test_mapping_never_reassigned_across_subflows(self, fabric):
        """A DSN range granted to one subflow stays there (the v0.89
        behaviour the paper highlights: a stalled subflow's data is never
        re-sent on another)."""
        sim, net, hosts = fabric
        connection = _open(hosts)
        connection.start_flow(500_000, lambda: None)
        sim.run(until=1.0)
        seen = {}
        for i, sender in enumerate(connection.senders):
            for _sf, dsn, length in sender._mappings:
                for other, rng in seen.items():
                    for d, l in rng:
                        assert not (dsn < d + l and d < dsn + length), (
                            f"DSN overlap between subflows {i} and {other}"
                        )
                seen.setdefault(i, []).append((dsn, length))
