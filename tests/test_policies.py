"""Unit tests for the edge load-balancing policies."""

import random

import pytest

from repro.baselines.ecmp import EcmpPolicy
from repro.baselines.presto import PrestoPolicy
from repro.core.clove import (
    CloveEcnPolicy,
    CloveIntPolicy,
    CloveParams,
    EdgeFlowletPolicy,
)
from repro.hypervisor.policy import PathFeedback
from repro.net.packet import FlowKey

from tests.conftest import make_data_packet

FLOW = FlowKey(1, 42, 1000, 80)
PORTS = [50001, 50002, 50003, 50004]
TRACES = [("a",), ("b",), ("c",), ("d",)]


def _packet(seq=0):
    return make_data_packet(FLOW, seq, 1460, 0.0)


def _params(gap=1e-4):
    return CloveParams(flowlet_gap=gap)


class TestEcmpPolicy:
    def test_port_is_static_per_flow(self):
        policy = EcmpPolicy(hash_seed=1)
        ports = {policy.select_source_port(FLOW, _packet(), t * 1.0) for t in range(10)}
        assert len(ports) == 1

    def test_different_flows_can_differ(self):
        policy = EcmpPolicy(hash_seed=1)
        ports = {
            policy.select_source_port(FlowKey(1, 42, p, 80), _packet(), 0.0)
            for p in range(1000, 1100)
        }
        assert len(ports) > 10

    def test_no_discovery_needed(self):
        assert not EcmpPolicy().needs_discovery()


class TestEdgeFlowletPolicy:
    def test_same_flowlet_same_port(self):
        policy = EdgeFlowletPolicy(random.Random(1), _params())
        p1 = policy.select_source_port(FLOW, _packet(), 0.0)
        p2 = policy.select_source_port(FLOW, _packet(), 0.00005)
        assert p1 == p2

    def test_new_flowlet_rerolls(self):
        policy = EdgeFlowletPolicy(random.Random(1), _params())
        ports = set()
        t = 0.0
        for _ in range(50):
            ports.add(policy.select_source_port(FLOW, _packet(), t))
            t += 1.0  # way beyond the gap each time
        assert len(ports) > 10

    def test_use_discovered_restricts_to_port_set(self):
        policy = EdgeFlowletPolicy(random.Random(1), _params(), use_discovered=True)
        policy.set_paths(42, PORTS, TRACES)
        t = 0.0
        for _ in range(50):
            port = policy.select_source_port(FLOW, _packet(), t)
            assert port in PORTS
            t += 1.0
        assert policy.needs_discovery()


class TestCloveEcnPolicy:
    def test_fallback_before_discovery_is_static(self):
        policy = CloveEcnPolicy(_params())
        ports = {policy.select_source_port(FLOW, _packet(), t * 1.0) for t in range(5)}
        assert len(ports) == 1  # static hash fallback per flow

    def test_uses_discovered_ports(self):
        policy = CloveEcnPolicy(_params())
        policy.set_paths(42, PORTS, TRACES)
        t, seen = 0.0, set()
        for _ in range(20):
            seen.add(policy.select_source_port(FLOW, _packet(), t))
            t += 1.0
        assert seen == set(PORTS)  # uniform WRR rotates through all

    def test_feedback_shifts_weights(self):
        policy = CloveEcnPolicy(_params())
        policy.set_paths(42, PORTS, TRACES)
        policy.on_path_feedback(
            PathFeedback(dst_ip=42, port=PORTS[0], congested=True), now=0.0
        )
        weights = policy.weights.weights_for(42)
        assert weights[PORTS[0]] < 0.25
        assert sum(weights.values()) == pytest.approx(1.0)

    def test_all_paths_congested_roundtrip(self):
        policy = CloveEcnPolicy(CloveParams(flowlet_gap=1e-4, congestion_expiry=1.0))
        policy.set_paths(42, PORTS, TRACES)
        for port in PORTS:
            policy.on_path_feedback(
                PathFeedback(dst_ip=42, port=port, congested=True), now=0.0
            )
        assert policy.all_paths_congested(42, now=0.0)
        assert not policy.all_paths_congested(42, now=2.0)

    def test_rediscovery_remaps_flowlet_ports(self):
        policy = CloveEcnPolicy(_params(gap=10.0))
        policy.set_paths(42, PORTS, TRACES)
        port = policy.select_source_port(FLOW, _packet(), 0.0)
        index = PORTS.index(port)
        new_ports = [60001, 60002, 60003, 60004]
        policy.set_paths(42, new_ports, TRACES)
        # The ongoing flowlet must continue on the *same physical path*,
        # i.e. the remapped port.
        assert policy.select_source_port(FLOW, _packet(), 0.1) == new_ports[index]


class TestCloveIntPolicy:
    def test_picks_least_utilized(self):
        policy = CloveIntPolicy(CloveParams(flowlet_gap=1e-4, util_aging=0.0),
                                local_bump=0.0)
        policy.set_paths(42, PORTS, TRACES)
        for port, util in zip(PORTS, (0.9, 0.1, 0.5, 0.7)):
            policy.on_path_feedback(
                PathFeedback(dst_ip=42, port=port, congested=False, util=util), now=0.0
            )
        assert policy.select_source_port(FLOW, _packet(), 0.0) == PORTS[1]

    def test_local_bump_avoids_herding(self):
        policy = CloveIntPolicy(CloveParams(flowlet_gap=1e-6, util_aging=0.0),
                                local_bump=0.2)
        policy.set_paths(42, PORTS, TRACES)
        for port, util in zip(PORTS, (0.0, 0.3, 0.6, 0.9)):
            policy.on_path_feedback(
                PathFeedback(dst_ip=42, port=port, congested=False, util=util), now=0.0
            )
        picks = []
        t = 0.0
        for i in range(4):
            flow = FlowKey(1, 42, 2000 + i, 80)
            picks.append(policy.select_source_port(flow, _packet(), t))
        # Without the bump all four would pick PORTS[0]; with it the local
        # estimate rises and spreads the picks.
        assert len(set(picks)) > 1


class TestPrestoPolicy:
    def test_flowcell_boundary_rotates_port(self):
        policy = PrestoPolicy(flowcell_bytes=2920)  # two segments per cell
        policy.set_paths(42, PORTS, TRACES)
        ports = [
            policy.select_source_port(FLOW, _packet(i * 1460), 0.0) for i in range(8)
        ]
        # Port constant within a cell, changes at each 2-segment boundary.
        assert ports[0] == ports[1]
        assert ports[2] == ports[3]
        assert ports[0] != ports[2]

    def test_uniform_spraying_covers_all_paths(self):
        policy = PrestoPolicy(flowcell_bytes=1460)
        policy.set_paths(42, PORTS, TRACES)
        ports = {
            policy.select_source_port(FLOW, _packet(i * 1460), 0.0) for i in range(8)
        }
        assert ports == set(PORTS)

    def test_static_weights_respected(self):
        policy = PrestoPolicy(flowcell_bytes=1460, static_weights=[0.5, 0.5, 0.0, 0.0])
        policy.set_paths(42, PORTS, TRACES)
        ports = [
            policy.select_source_port(FLOW, _packet(i * 1460), 0.0) for i in range(100)
        ]
        assert set(ports) == {PORTS[0], PORTS[1]}

    def test_weight_fn_applied_on_set_paths(self):
        calls = []

        def weight_fn(traces):
            calls.append(traces)
            return [1.0, 0.0, 0.0, 0.0]

        policy = PrestoPolicy(flowcell_bytes=1460, weight_fn=weight_fn)
        policy.set_paths(42, PORTS, TRACES)
        assert calls == [TRACES]
        ports = {
            policy.select_source_port(FLOW, _packet(i * 1460), 0.0) for i in range(50)
        }
        assert ports == {PORTS[0]}

    def test_flowcell_metadata_stamped(self):
        policy = PrestoPolicy(flowcell_bytes=1460)
        policy.set_paths(42, PORTS, TRACES)
        packet = _packet(0)
        policy.select_source_port(FLOW, packet, 0.0)
        assert packet.flowcell_id == 0
        packet2 = _packet(1460)
        policy.select_source_port(FLOW, packet2, 0.0)
        assert packet2.flowcell_id == 1

    def test_needs_reassembly(self):
        assert PrestoPolicy().needs_reassembly
