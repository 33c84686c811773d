"""Tests for the in-network baselines: CONGA and LetFlow."""

import pytest

from repro.baselines.conga import (
    CE,
    CongaLeafSwitch,
    CongaSpineSwitch,
    LBTAG,
    configure_conga,
)
from repro.baselines.letflow import LetFlowSwitch
from repro.hypervisor.host import Host
from repro.net.packet import FlowKey, make_data_packet
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.topology.leafspine import LeafSpineConfig, build_leaf_spine
from repro.transport.tcp import open_connection


def _conga_fabric(hosts_per_leaf=2, asymmetric=False):
    sim = Simulator()
    cfg = LeafSpineConfig(
        hosts_per_leaf=hosts_per_leaf,
        leaf_switch_class=CongaLeafSwitch,
        spine_switch_class=CongaSpineSwitch,
    )
    net = build_leaf_spine(sim, RngRegistry(1), cfg)
    configure_conga(net, flowlet_gap=1e-4)
    if asymmetric:
        net.fail_cable("L2", "S2", 0)
    hosts = {name: Host(sim, net, name) for name in sorted(net.hosts)}
    return sim, net, hosts


class TestCongaSetup:
    def test_configure_wires_uplinks(self):
        sim, net, hosts = _conga_fabric()
        leaf = net.switches["L1"]
        assert [l.name for l in leaf.uplinks] == [
            "L1->S1#0", "L1->S1#1", "L1->S2#0", "L1->S2#1",
        ]
        assert leaf.cables_per_pair == 2

    def test_local_and_remote_ips_partitioned(self):
        sim, net, hosts = _conga_fabric()
        leaf = net.switches["L1"]
        assert net.host_ip("h1_0") in leaf.local_ips
        assert leaf.leaf_of[net.host_ip("h2_0")] == "L2"

    def test_configure_requires_conga_switches(self):
        sim = Simulator()
        net = build_leaf_spine(sim, RngRegistry(1), LeafSpineConfig(hosts_per_leaf=1))
        with pytest.raises(ValueError):
            configure_conga(net)


class TestCongaDataPath:
    def test_flow_completes(self):
        sim, net, hosts = _conga_fabric()
        connection = open_connection(hosts["h1_0"], hosts["h2_0"], 1000, 80)
        done = []
        connection.start_flow(500_000, lambda: done.append(sim.now))
        sim.run(until=2.0)
        assert done

    def test_conga_metadata_stripped_at_destination_leaf(self):
        sim, net, hosts = _conga_fabric()
        received = []
        orig = hosts["h2_0"].receive
        net.register_host_receiver(
            "h2_0", lambda p, link: (received.append(p), orig(p, link))
        )
        connection = open_connection(hosts["h1_0"], hosts["h2_0"], 1000, 80)
        connection.start_flow(50_000, lambda: None)
        sim.run(until=1.0)
        assert received
        assert all(LBTAG not in p.meta and CE not in p.meta for p in received)

    def test_congestion_tables_populated(self):
        sim, net, hosts = _conga_fabric()
        connection = open_connection(hosts["h1_0"], hosts["h2_0"], 1000, 80)
        connection.start_flow(2_000_000, lambda: None)
        sim.run(until=2.0)
        l2 = net.switches["L2"]
        assert "L1" in l2.from_table
        assert any(v > 0 for v in l2.from_table["L1"])
        # Feedback flowed back on the ACK stream into L1's to-table.
        l1 = net.switches["L1"]
        assert "L2" in l1.to_table

    def test_asymmetry_shifts_traffic_off_bottleneck(self):
        sim, net, hosts = _conga_fabric(asymmetric=True)
        connections = [
            open_connection(hosts["h1_0"], hosts["h2_0"], 1000, 80),
            open_connection(hosts["h1_1"], hosts["h2_1"], 1001, 80),
        ]
        for connection in connections:
            for _ in range(4):
                connection.start_flow(2_000_000, lambda: None)
        sim.run(until=3.0)
        leaf = net.switches["L1"]
        s1_bytes = sum(l.tx_bytes for l in leaf.uplinks[:2])
        s2_bytes = sum(l.tx_bytes for l in leaf.uplinks[2:])
        # S2's downlink capacity halved: CONGA must send it less than S1.
        assert s2_bytes < s1_bytes

    def test_spine_honours_lbtag(self):
        sim, net, hosts = _conga_fabric()
        spine = net.switches["S1"]
        live = net.links[("S1", "L2")]
        packet = make_data_packet(
            FlowKey(net.host_ip("h1_0"), net.host_ip("h2_0"), 7, 7471), 0, 100, 0.0
        )
        packet.meta[LBTAG] = 1
        chosen = spine.select_port(packet, packet.route_key, list(live), None)
        assert chosen is live[1]


class TestLetFlow:
    def _fabric(self):
        sim = Simulator()
        cfg = LeafSpineConfig(hosts_per_leaf=2, switch_class=LetFlowSwitch)
        net = build_leaf_spine(sim, RngRegistry(1), cfg)
        hosts = {name: Host(sim, net, name) for name in sorted(net.hosts)}
        return sim, net, hosts

    def test_flow_completes(self):
        sim, net, hosts = self._fabric()
        connection = open_connection(hosts["h1_0"], hosts["h2_0"], 1000, 80)
        done = []
        connection.start_flow(500_000, lambda: done.append(True))
        sim.run(until=2.0)
        assert done

    def test_flowlets_pin_within_gap(self):
        sim = Simulator()
        switch = LetFlowSwitch(sim, "X", 1, hash_seed=1, flowlet_gap=1.0)
        from repro.net.link import Link
        live = [Link(sim, f"l{i}", 1e9, 0.0) for i in range(4)]
        key = FlowKey(1, 2, 3, 4)
        packet = make_data_packet(key, 0, 100, 0.0)
        first = switch.select_port(packet, key, live, None)
        for _ in range(10):
            assert switch.select_port(packet, key, live, None) is first

    def test_new_flowlet_can_switch(self):
        sim = Simulator()
        switch = LetFlowSwitch(sim, "X", 1, hash_seed=1, flowlet_gap=1e-9)
        from repro.net.link import Link
        live = [Link(sim, f"l{i}", 1e9, 0.0) for i in range(4)]
        key = FlowKey(1, 2, 3, 4)
        packet = make_data_packet(key, 0, 100, 0.0)
        chosen = set()
        for i in range(50):
            sim.schedule(1e-6, lambda: None)
            sim.run()  # advance time beyond the gap
            chosen.add(switch.select_port(packet, key, live, None).name)
        assert len(chosen) > 1
