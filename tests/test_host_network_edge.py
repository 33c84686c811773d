"""Edge-case tests for the Host demux and Network wiring."""

import pytest

from repro.net.packet import FlowKey, make_data_packet
from repro.transport.tcp import open_connection

from tests.conftest import make_fabric


class TestHostDemux:
    def test_unknown_flow_is_dropped_silently(self, fabric):
        sim, net, hosts = fabric
        host = hosts["h2_0"]
        packet = make_data_packet(FlowKey(99, host.ip, 1, 2), 0, 100, 0.0)
        host.deliver_to_guest(packet)  # must not raise

    def test_unregister_endpoint(self, fabric):
        sim, net, hosts = fabric
        connection = open_connection(hosts["h1_0"], hosts["h2_0"], 1000, 80)
        key = connection.receiver.flow
        hosts["h2_0"].unregister_endpoint(key)
        connection.start_flow(10_000, lambda: None)
        sim.run(until=0.05)
        # With the receiver gone, nothing ACKs: the sender stays stuck.
        assert connection.receiver.rcv_nxt == 0
        assert connection.sender.snd_una == 0

    def test_unregister_unknown_is_noop(self, fabric):
        sim, net, hosts = fabric
        hosts["h1_0"].unregister_endpoint(FlowKey(1, 2, 3, 4))

    def test_rx_counter_increments(self, fabric):
        sim, net, hosts = fabric
        connection = open_connection(hosts["h1_0"], hosts["h2_0"], 1000, 80)
        connection.start_flow(10_000, lambda: None)
        sim.run(until=0.1)
        assert hosts["h2_0"].rx_packets > 0
        assert hosts["h1_0"].rx_packets > 0  # the ACK stream


class TestNetworkWiring:
    def test_duplicate_host_rejected(self, fabric):
        sim, net, hosts = fabric
        with pytest.raises(ValueError):
            net.add_host("h1_0", "L1", None)

    def test_duplicate_switch_rejected(self, fabric):
        sim, net, hosts = fabric
        from repro.net.switch import Switch
        with pytest.raises(ValueError):
            net.add_switch(Switch(sim, "L1", 999, hash_seed=1))

    def test_register_receiver_unknown_host(self, fabric):
        sim, net, hosts = fabric
        with pytest.raises(KeyError):
            net.register_host_receiver("nope", lambda p: None)

    def test_parallel_cables_have_distinct_names(self, fabric):
        sim, net, hosts = fabric
        names = [l.name for l in net.links[("L1", "S1")]]
        assert len(names) == len(set(names)) == 2

    def test_host_link_is_uplink(self, fabric):
        sim, net, hosts = fabric
        link = net.host_link("h1_0")
        assert link.name.startswith("h1_0->L1")

    def test_all_links_enumerates_everything(self, fabric):
        sim, net, hosts = fabric
        # 16 fabric simplex links + 4 hosts x 2 directions.
        assert len(net.all_links()) == 16 + 8

    def test_graph_excludes_fully_dead_pairs(self, fabric):
        sim, net, hosts = fabric
        net.fail_cable("L2", "S2", 0)
        g = net.graph(live_only=True)
        assert "S2" in g["L2"] and "L2" in g["S2"]   # cable #1 still up
        net.fail_cable("L2", "S2", 1)
        g = net.graph(live_only=True)
        assert "S2" not in g["L2"] and "L2" not in g["S2"]

    def test_compute_routes_idempotent(self, fabric):
        sim, net, hosts = fabric
        before = {
            (s, ip): [l.name for l in group]
            for s, switch in net.switches.items()
            for ip, group in switch.routes.items()
        }
        net.compute_routes()
        after = {
            (s, ip): [l.name for l in group]
            for s, switch in net.switches.items()
            for ip, group in switch.routes.items()
        }
        assert before == after
