"""The scheme table: every row resolves, and a new scheme is one row."""

import pytest

from repro.core.clove import CloveParams
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.incast import run_incast
from repro.harness.schemes import SCHEMES, PolicySite, Scheme, resolve
from repro.hypervisor.policy import LoadBalancer
from repro.net.hashing import EcmpHasher
from repro.net.switch import Switch
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.topology.leafspine import LeafSpineConfig, build_leaf_spine


@pytest.mark.parametrize("name", SCHEMES)
def test_every_row_resolves(name):
    row = SCHEMES[name]
    assert row.name == name and row.summary
    rng = RngRegistry(1)
    net = build_leaf_spine(Simulator(), rng, LeafSpineConfig(hosts_per_leaf=1))
    config = ExperimentConfig(scheme=name)
    site = PolicySite(config, CloveParams(), net, rng, index=0, seed=7)
    policy_class = resolve(row.policy)
    assert issubclass(policy_class, LoadBalancer)
    assert isinstance(policy_class.from_site(site), policy_class)
    assert issubclass(resolve(row.leaf_switch), Switch)
    assert issubclass(resolve(row.spine_switch), Switch)
    assert row.fabric_hook is None or callable(resolve(row.fabric_hook))
    assert callable(resolve(row.opener)(config))


BUILT = []


class RoundRobinPolicy(LoadBalancer):
    """Each new flow takes the next discovered path towards its destination."""

    def __init__(self, hash_seed: int) -> None:
        self._hasher = EcmpHasher(hash_seed)
        self._ports = {}
        self._turn = {}
        self._flows = {}
        BUILT.append(self)

    def needs_discovery(self) -> bool:
        return True

    def set_paths(self, dst_ip, ports, traces=()) -> None:
        self._ports[dst_ip] = list(ports)

    def select_source_port(self, inner, packet, now) -> int:
        port = self._flows.get(inner)
        if port is None:
            ports = self._ports.get(inner.dst_ip)
            if ports:
                turn = self._turn.get(inner.dst_ip, 0)
                self._turn[inner.dst_ip] = turn + 1
                port = ports[turn % len(ports)]
            else:
                port = 49152 + self._hasher.select(inner, 16384)
            self._flows[inner] = port
        return port


@pytest.fixture
def round_robin(monkeypatch):
    BUILT.clear()
    monkeypatch.setitem(SCHEMES, "round-robin", Scheme(
        "round-robin", "next discovered path per flow",
        f"{__name__}:RoundRobinPolicy"))
    return "round-robin"


def test_one_row_runs_a_new_scheme_through_both_harnesses(round_robin):
    result = run_experiment(ExperimentConfig(
        scheme=round_robin, load=0.4, jobs_per_client=6, clients_per_leaf=3,
        connections_per_client=2, seed=5))
    assert result.collector.completion_rate == 1.0
    assert {type(host.vswitch.policy) for host in result.hosts.values()} == {
        RoundRobinPolicy}
    assert any(len(set(policy._flows.values())) > 1 for policy in BUILT)

    BUILT.clear()
    goodput = run_incast(scheme=round_robin, fanout=2, n_requests=2,
                         total_bytes=200_000)
    assert goodput > 0 and BUILT
