"""Unit tests for the ECMP switch and topology builders."""

import pytest

from repro.core.clove import CloveEcnPolicy, CloveParams
from repro.net.packet import STT_DST_PORT, FlowKey, make_data_packet
from repro.net.switch import Switch
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.topology.fattree import FatTreeConfig, build_fat_tree
from repro.topology.leafspine import LeafSpineConfig, build_leaf_spine
from repro.transport.tcp import open_connection

from tests.conftest import make_fabric


def _net(sim=None, **overrides):
    sim = sim if sim is not None else Simulator()
    cfg = LeafSpineConfig(hosts_per_leaf=4, **overrides)
    return sim, build_leaf_spine(sim, RngRegistry(1), cfg)


class TestLeafSpineBuild:
    def test_element_counts(self):
        _sim, net = _net()
        assert len(net.switches) == 4          # 2 spines + 2 leaves
        assert len(net.hosts) == 8
        # 2 leaves x 2 spines x 2 cables x 2 dirs + 8 host duplex cables
        fabric_links = sum(
            len(g) for (a, b), g in net.links.items()
            if a in net.switches and b in net.switches
        )
        assert fabric_links == 16

    def test_bisection_bandwidth(self):
        _sim, net = _net()
        # Each leaf has 2 spines x 2 cables x 40G = 160G of uplinks.
        assert net.bisection_bandwidth_bps() == pytest.approx(4 * 40e9)

    def test_bisection_drops_on_failure(self):
        _sim, net = _net()
        net.fail_cable("L2", "S2", 0)
        assert net.bisection_bandwidth_bps() == pytest.approx(3 * 40e9)

    def test_routes_exist_for_all_hosts_on_all_switches(self):
        _sim, net = _net()
        for switch in net.switches.values():
            for ip in net.host_ips:
                assert ip in switch.routes, f"{switch.name} missing {ip}"

    def test_leaf_has_four_uplinks_to_remote_hosts(self):
        _sim, net = _net()
        leaf = net.switches["L1"]
        remote_ip = net.host_ip("h2_0")
        assert len(leaf.routes[remote_ip]) == 4

    def test_leaf_has_single_downlink_to_local_host(self):
        _sim, net = _net()
        leaf = net.switches["L1"]
        local_ip = net.host_ip("h1_0")
        assert len(leaf.routes[local_ip]) == 1

    def test_scale_applies_to_rates(self):
        _sim, net = _net(scale=0.5)
        assert net.host_link("h1_0").rate_bps == pytest.approx(5e9)

    def test_host_ip_mapping_consistent(self):
        _sim, net = _net()
        for name, (ip, _leaf) in net.hosts.items():
            assert net.host_ips[ip] == name

    def test_fail_cable_both_directions(self):
        _sim, net = _net()
        net.fail_cable("L2", "S2", 0)
        assert not net.links[("L2", "S2")][0].up
        assert not net.links[("S2", "L2")][0].up
        net.recover_cable("L2", "S2", 0)
        assert net.links[("S2", "L2")][0].up


class TestPacketDelivery:
    def test_end_to_end_delivery(self):
        sim, net = _net()
        received = []
        net.register_host_receiver("h2_0", lambda packet, _link: received.append(packet))
        packet = make_data_packet(
            FlowKey(net.host_ip("h1_0"), net.host_ip("h2_0"), 1000, 80), 0, 100, 0.0
        )
        net.host_link("h1_0").send(packet)
        sim.run()
        assert received == [packet]
        assert packet.ttl < 64  # decremented at each switch hop

    def test_ecmp_spreads_distinct_outer_ports(self):
        sim, net = _net()
        received = []
        net.register_host_receiver("h2_0", lambda packet, _link: received.append(packet))
        leaf = net.switches["L1"]
        dst_ip = net.host_ip("h2_0")
        used_links = set()
        group = leaf.routes[dst_ip]
        for sport in range(49152, 49152 + 64):
            key = FlowKey(net.host_ip("h1_0"), dst_ip, sport, 7471)
            index = leaf.hasher.select(key, len(group))
            used_links.add(group[index].name)
        assert len(used_links) == 4  # 64 ports cover all 4 uplinks whp

    def test_failed_cable_reroutes_instead_of_blackholing(self):
        sim, net = _net()
        net.fail_cable("L2", "S2", 0)
        received = []
        net.register_host_receiver("h2_0", lambda packet, _link: received.append(packet))
        # Send lots of distinct ports: some would have hashed to the dead
        # cable; all must still arrive via the surviving one.
        for sport in range(49152, 49152 + 32):
            packet = make_data_packet(
                FlowKey(net.host_ip("h1_0"), net.host_ip("h2_0"), sport, 7471),
                0, 100, 0.0,
            )
            net.host_link("h1_0").send(packet)
        sim.run()
        assert len(received) == 32

    def test_ttl_expiry_generates_icmp_to_source(self):
        sim, net = _net()
        icmp = []
        net.register_host_receiver("h1_0", lambda packet, _link: icmp.append(packet))
        packet = make_data_packet(
            FlowKey(net.host_ip("h1_0"), net.host_ip("h2_0"), 1000, 80), 0, 28, 0.0
        )
        packet.ttl = 2  # expires at the spine (hop 2)
        packet.meta["probe_id"] = 77
        net.host_link("h1_0").send(packet)
        sim.run()
        assert len(icmp) == 1
        reply = icmp[0]
        assert reply.meta["icmp"] == "time_exceeded"
        assert reply.meta["probe_id"] == 77
        assert reply.meta["hop_switch"].startswith("S")
        assert "->" in reply.meta["hop_interface"]

    def test_blackhole_counter_for_unknown_destination(self):
        sim, net = _net()
        leaf = net.switches["L1"]
        packet = make_data_packet(FlowKey(1, 9999, 1, 2), 0, 10, 0.0)
        leaf.receive(packet, None)
        assert leaf.blackholed == 1


def _uplinks_used(net):
    """How many of L1's four spine uplinks carried at least one packet."""
    uplinks = net.links[("L1", "S1")] + net.links[("L1", "S2")]
    return sum(1 for link in uplinks if link.tx_packets)


class TestUplinkSpread:
    def test_flow_without_policy_pins_to_one_uplink(self):
        # Non-overlay pass-through: the inner 5-tuple is fixed, so ECMP
        # pins the whole flow to one path.
        sim, net, hosts = make_fabric()
        open_connection(hosts["h1_0"], hosts["h2_0"], 1000, 80).start_flow(
            300_000, lambda: None)
        sim.run(until=2.0)
        assert _uplinks_used(net) == 1

    def test_flowlet_policy_spreads_over_uplinks(self):
        sim, net, hosts = make_fabric(
            policy_factory=lambda name, index: CloveEcnPolicy(
                CloveParams(flowlet_gap=1e-6)))
        # One outer source port per L1 uplink, found the way discovery
        # would: by asking which ECMP member each candidate hashes to.
        leaf = net.switches["L1"]
        src_ip, dst_ip = hosts["h1_0"].ip, hosts["h2_0"].ip
        group = leaf.routes[dst_ip]
        port_for = {}
        for sport in range(49152, 49152 + 400):
            key = FlowKey(src_ip, dst_ip, sport, STT_DST_PORT)
            port_for.setdefault(leaf.hasher.select(key, len(group)), sport)
        ports = list(port_for.values())
        assert len(ports) == 4
        hosts["h1_0"].vswitch.policy.set_paths(
            dst_ip, ports, [(f"p{i}",) for i in range(len(ports))])
        hosts["h2_0"].vswitch.policy.set_paths(src_ip, [50001], [("r",)])
        open_connection(hosts["h1_0"], hosts["h2_0"], 1000, 80).start_flow(
            500_000, lambda: None)
        sim.run(until=2.0)
        assert _uplinks_used(net) > 1


class TestFatTree:
    def test_k4_counts(self):
        sim = Simulator()
        net = build_fat_tree(sim, RngRegistry(1), FatTreeConfig(k=4))
        # 4 cores + 4 pods x (2 agg + 2 edge) = 20 switches; 16 hosts.
        assert len(net.switches) == 20
        assert len(net.hosts) == 16

    def test_cross_pod_ecmp_width(self):
        sim = Simulator()
        net = build_fat_tree(sim, RngRegistry(1), FatTreeConfig(k=4))
        edge = net.switches["E0_0"]
        remote = net.host_ip("h3_1_0")
        assert len(edge.routes[remote]) == 2   # two aggregation choices

    def test_cross_pod_delivery(self):
        sim = Simulator()
        net = build_fat_tree(sim, RngRegistry(1), FatTreeConfig(k=4))
        received = []
        net.register_host_receiver("h3_1_1", lambda packet, _link: received.append(packet))
        packet = make_data_packet(
            FlowKey(net.host_ip("h0_0_0"), net.host_ip("h3_1_1"), 1234, 80),
            0, 100, 0.0,
        )
        net.host_link("h0_0_0").send(packet)
        sim.run()
        assert len(received) == 1

    def test_odd_k_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            build_fat_tree(sim, RngRegistry(1), FatTreeConfig(k=3))
