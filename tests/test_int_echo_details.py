"""Detailed tests: INT stamping at switches, echo slot rotation at the
vswitch, and CONGA's metric aging."""

import pytest

from repro.baselines.conga import CongaLeafSwitch
from repro.hypervisor.vswitch import VSwitch, _PathEchoState
from repro.net.packet import FlowKey
from repro.net.switch import Switch
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.topology.leafspine import LeafSpineConfig, build_leaf_spine

from tests.conftest import make_data_packet, make_fabric


class TestIntStamping:
    def _int_net(self):
        sim = Simulator()
        net = build_leaf_spine(
            sim, RngRegistry(1), LeafSpineConfig(hosts_per_leaf=2, int_capable=True)
        )
        return sim, net

    def test_switch_stamps_max_utilization(self):
        sim, net = self._int_net()
        leaf = net.switches["L1"]
        dst = net.host_ip("h2_0")
        # Preload one uplink's DRE so its utilization is visibly nonzero.
        uplink = leaf.routes[dst][0]
        # The 40G DRE window is ~2MB; push enough bytes to read as loaded.
        for _ in range(2000):
            uplink.dre.record(1500, sim.now)
        packet = make_data_packet(FlowKey(net.host_ip("h1_0"), dst, 1, 7471), 0, 100, 0.0)
        packet.int_enabled = True
        # Force the hash to pick the loaded uplink by trying source ports.
        for sport in range(1, 400):
            candidate = FlowKey(net.host_ip("h1_0"), dst, sport, 7471)
            if leaf.routes[dst][leaf.hasher.select(candidate, 4)] is uplink:
                packet.inner = candidate
                break
        leaf.forward(packet, None)
        assert packet.int_max_util > 0.5

    def test_non_int_switch_does_not_stamp(self):
        sim = Simulator()
        net = build_leaf_spine(sim, RngRegistry(1), LeafSpineConfig(hosts_per_leaf=2))
        leaf = net.switches["L1"]
        dst = net.host_ip("h2_0")
        packet = make_data_packet(FlowKey(net.host_ip("h1_0"), dst, 1, 7471), 0, 100, 0.0)
        packet.int_enabled = True
        leaf.forward(packet, None)
        assert packet.int_max_util == 0.0

    def test_stamp_keeps_running_max(self):
        sim, net = self._int_net()
        packet = make_data_packet(FlowKey(1, 2, 3, 4), 0, 100, 0.0)
        packet.int_enabled = True
        packet.int_max_util = 0.9
        leaf = net.switches["L1"]
        dst = net.host_ip("h2_0")
        packet.inner = FlowKey(net.host_ip("h1_0"), dst, 5, 7471)
        leaf.forward(packet, None)
        assert packet.int_max_util == pytest.approx(0.9)  # idle links can't lower it


class TestEchoRotation:
    def _vswitch(self):
        sim, net, hosts = make_fabric()
        return sim, hosts["h1_0"].vswitch

    def test_one_echo_per_packet(self):
        sim, vswitch = self._vswitch()
        remote = 99
        for port in (1, 2, 3):
            state = _PathEchoState()
            state.ecn_pending = True
            vswitch._echo.setdefault(remote, {})[port] = state
        packet = make_data_packet(FlowKey(1, remote, 5, 80), 0, 100, 0.0)
        vswitch._attach_echo(packet, remote)
        assert packet.stt_echo_port in (1, 2, 3)
        pending = [s for s in vswitch._echo[remote].values() if s.ecn_pending]
        assert len(pending) == 2  # exactly one consumed

    def test_rotation_covers_all_ports(self):
        sim, vswitch = self._vswitch()
        remote = 99
        for port in (1, 2, 3):
            state = _PathEchoState()
            state.util = 0.5
            state.util_fresh = True
            vswitch._echo.setdefault(remote, {})[port] = state
        echoed = []
        for _ in range(3):
            packet = make_data_packet(FlowKey(1, remote, 5, 80), 0, 100, 0.0)
            vswitch._attach_echo(packet, remote)
            echoed.append(packet.stt_echo_port)
        assert sorted(echoed) == [1, 2, 3]

    def test_no_pending_no_echo(self):
        sim, vswitch = self._vswitch()
        packet = make_data_packet(FlowKey(1, 99, 5, 80), 0, 100, 0.0)
        vswitch._attach_echo(packet, 99)
        assert packet.stt_echo_port is None

    def test_relay_interval_blocks_repeat_ecn(self):
        sim, vswitch = self._vswitch()
        vswitch.ecn_relay_interval = 1.0
        remote = 99
        state = _PathEchoState()
        state.ecn_pending = True
        vswitch._echo.setdefault(remote, {})[1] = state
        first = make_data_packet(FlowKey(1, remote, 5, 80), 0, 100, 0.0)
        vswitch._attach_echo(first, remote)
        assert first.stt_echo_ecn
        # New mark arrives immediately: must be held back by the interval.
        state.ecn_pending = True
        second = make_data_packet(FlowKey(1, remote, 5, 80), 0, 100, 0.0)
        vswitch._attach_echo(second, remote)
        assert second.stt_echo_port is None


class TestCongaAging:
    def _leaf(self):
        sim = Simulator()
        leaf = CongaLeafSwitch(sim, "L1", 1, hash_seed=1)
        leaf.uplinks = []
        return sim, leaf

    def test_stored_metric_decays(self):
        sim, leaf = self._leaf()
        leaf.uplinks = [None, None]  # row sizing only

        row = leaf._table_row(leaf.to_table, "L2")
        leaf._store_metric(row, 0, 1.0)
        fresh = leaf._aged_metric(row, 0)
        sim.schedule(5 * leaf.METRIC_AGING, lambda: None)
        sim.run()
        stale = leaf._aged_metric(row, 0)
        assert fresh == pytest.approx(1.0)
        assert stale < 0.05

    def test_unstamped_metric_not_decayed(self):
        sim, leaf = self._leaf()
        leaf.uplinks = [None]
        row = leaf._table_row(leaf.to_table, "L2")
        row[0] = 0.7  # written without _store_metric (no timestamp)
        assert leaf._aged_metric(row, 0) == pytest.approx(0.7)
