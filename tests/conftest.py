"""Shared fixtures: a tiny two-host network with pluggable policies."""

from typing import Dict, Optional, Tuple

import pytest

from repro.hypervisor.host import Host
from repro.hypervisor.policy import LoadBalancer
from repro.net.packet import FlowKey, Packet
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.topology.leafspine import LeafSpineConfig, build_leaf_spine
from repro.topology.network import Network


#: the per-callee table of ``test_hot_path_budget.py``'s counted runs,
#: printed once in the terminal summary of the session that counted them
HOT_PATH_REPORT = pytest.StashKey[str]()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    report = config.stash.get(HOT_PATH_REPORT, None)
    if report is not None:
        terminalreporter.section("Python calls per NIC packet")
        terminalreporter.write(report)


def make_fabric(
    hosts_per_leaf: int = 2,
    policy_factory=None,
    seed: int = 1,
    **topo_overrides,
) -> Tuple[Simulator, Network, Dict[str, Host]]:
    """Build a small leaf-spine fabric with hosts attached.

    ``policy_factory(host_name, index)`` returns the LoadBalancer for each
    host (None -> non-overlay pass-through).
    """
    sim = Simulator()
    rng = RngRegistry(seed)
    cfg = LeafSpineConfig(hosts_per_leaf=hosts_per_leaf, **topo_overrides)
    net = build_leaf_spine(sim, rng, cfg)
    hosts = {}
    for index, name in enumerate(sorted(net.hosts)):
        policy = policy_factory(name, index) if policy_factory else None
        hosts[name] = Host(sim, net, name, policy)
    return sim, net, hosts


def make_data_packet(
    flow: FlowKey, seq: int, payload: int, now: float, flags: str = ""
) -> Packet:
    """A guest data segment of ``payload`` bytes at ``seq``, as
    ``TcpSender`` builds it."""
    return Packet(flow, payload_bytes=payload, seq=seq, flags=flags,
                  created_at=now)


def make_ack_packet(flow: FlowKey, ack: int, now: float, flags: str = "") -> Packet:
    """A pure cumulative ACK, as ``TcpReceiver`` builds it."""
    return Packet(flow, ack=ack, flags=flags, created_at=now)


@pytest.fixture
def fabric():
    """Default two-hosts-per-leaf fabric without overlay policies."""
    return make_fabric()
