"""Tests for the Section 7 extensions: non-overlay (rewrite) mode and
latency-based path feedback."""

import pytest

from repro.core.clove import CloveEcnPolicy, CloveParams
from repro.core.latency import CloveLatencyPolicy
from repro.hypervisor.host import Host
from repro.hypervisor.policy import PathFeedback
from repro.net.packet import FlowKey
from repro.transport.tcp import open_connection

from tests.conftest import make_data_packet, make_fabric
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.topology.leafspine import LeafSpineConfig, build_leaf_spine


def _rewrite_fabric(**topo_overrides):
    sim = Simulator()
    rng = RngRegistry(1)
    net = build_leaf_spine(sim, rng, LeafSpineConfig(hosts_per_leaf=2, **topo_overrides))
    hosts = {}
    policies = {}
    for name in sorted(net.hosts):
        policy = CloveEcnPolicy(CloveParams(flowlet_gap=1e-4))
        policies[name] = policy
        hosts[name] = Host(sim, net, name, policy, vswitch_mode="rewrite")
    return sim, net, hosts, policies


class TestRewriteMode:
    def test_transfer_completes_transparently(self):
        sim, net, hosts, policies = _rewrite_fabric()
        connection = open_connection(hosts["h1_0"], hosts["h2_0"], 1234, 80)
        done = []
        connection.start_flow(300_000, lambda: done.append(sim.now))
        sim.run(until=2.0)
        assert done
        assert connection.receiver.rcv_nxt == 300_000

    def test_guest_sees_original_ports(self):
        sim, net, hosts, policies = _rewrite_fabric()
        connection = open_connection(hosts["h1_0"], hosts["h2_0"], 1234, 80)
        seen_keys = []
        receiver = connection.receiver
        orig = receiver.on_packet
        def spy(packet):
            seen_keys.append(packet.inner)
            orig(packet)
        receiver.on_packet = spy
        hosts["h2_0"].register_endpoint(receiver.flow, receiver)
        connection.start_flow(20_000, lambda: None)
        sim.run(until=1.0)
        assert seen_keys
        assert all(k.src_port == 1234 for k in seen_keys)

    def test_wire_carries_rewritten_port(self):
        sim, net, hosts, policies = _rewrite_fabric()
        policies["h1_0"].set_paths(
            hosts["h2_0"].ip, [61001], [("p0",)]
        )
        wire_ports = []
        leaf = net.switches["L1"]
        orig_forward = leaf.forward
        def spy(packet, link_in):
            if packet.inner.dst_ip == hosts["h2_0"].ip and packet.payload_bytes > 0:
                wire_ports.append(packet.inner.src_port)
            orig_forward(packet, link_in)
        leaf.forward = spy
        leaf_handler_refresh = net.register_host_receiver  # no-op ref
        connection = open_connection(hosts["h1_0"], hosts["h2_0"], 1234, 80)
        connection.start_flow(20_000, lambda: None)
        sim.run(until=1.0)
        # Switch-level traffic must carry the policy's port, not 1234.
        assert wire_ports
        assert all(p == 61001 for p in wire_ports)

    def test_ecn_echo_flows_in_rewrite_mode(self):
        sim, net, hosts, policies = _rewrite_fabric(ecn_threshold_packets=0)
        feedback = []
        policy = policies["h1_0"]
        orig = policy.on_path_feedback
        policy.on_path_feedback = lambda fb, now: (feedback.append(fb), orig(fb, now))
        connection = open_connection(hosts["h1_0"], hosts["h2_0"], 1234, 80)
        connection.start_flow(100_000, lambda: None)
        sim.run(until=1.0)
        assert any(fb.congested for fb in feedback)

    def test_invalid_mode_rejected(self):
        sim, net, hosts = make_fabric()
        from repro.hypervisor.vswitch import VSwitch
        with pytest.raises(ValueError):
            VSwitch(sim, hosts["h1_0"], None, mode="tunnel")


class TestCloveLatency:
    def test_policy_flags(self):
        policy = CloveLatencyPolicy()
        assert policy.wants_latency
        assert not policy.wants_int
        assert policy.needs_discovery()

    def test_latency_echo_recorded(self):
        policies = {}

        def factory(name, index):
            policies[name] = CloveLatencyPolicy(CloveParams(flowlet_gap=1e-4))
            return policies[name]

        sim, net, hosts = make_fabric(policy_factory=factory)
        policy = policies["h1_0"]
        dst = hosts["h2_0"].ip
        policy.set_paths(dst, [50001, 50002], [("a",), ("b",)])
        policies["h2_0"].set_paths(hosts["h1_0"].ip, [50001], [("r",)])
        connection = open_connection(hosts["h1_0"], hosts["h2_0"], 1000, 80)
        connection.start_flow(200_000, lambda: None)
        sim.run(until=1.0)
        utils = [policy.weights.util_of(dst, p) for p in (50001, 50002)]
        assert any(u > 0 for u in utils), "no latency echoed back"
        # Echoed values are one-way delays: micro- to milli-seconds here.
        assert all(u < 0.1 for u in utils)

    def test_prefers_lower_latency_path(self):
        policy = CloveLatencyPolicy(CloveParams(flowlet_gap=1e-6, util_aging=1.0),
                                    local_bump=0.0)
        policy.set_paths(9, [1, 2], [("a",), ("b",)])
        policy.on_path_feedback(PathFeedback(9, 1, False, util=500e-6), now=0.0)
        policy.on_path_feedback(PathFeedback(9, 2, False, util=20e-6), now=0.0)
        flow = FlowKey(1, 9, 77, 80)
        assert policy.select_source_port(flow, make_data_packet(flow, 0, 100, 0.0), 0.0) == 2

    def test_end_to_end_experiment(self):
        from repro import ExperimentConfig, run_experiment
        result = run_experiment(ExperimentConfig(
            scheme="clove-latency", load=0.4, jobs_per_client=5,
            clients_per_leaf=2, connections_per_client=1,
        ))
        assert result.collector.completion_rate == 1.0
