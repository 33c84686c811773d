"""The paper-scale point: the full testbed and the paper's protocol, as a
suite expresses it (``"topology": "paper"`` plus the point's fields)."""

import pytest

from repro.suite import TOPOLOGIES, build_config


class TestPaperTopology:
    def test_matches_the_testbed(self):
        topo = TOPOLOGIES["paper"]
        assert topo.hosts_per_leaf == 16
        assert topo.host_rate_bps == pytest.approx(10e9)
        assert topo.fabric_rate_bps == pytest.approx(40e9)
        assert topo.n_spines == 2 and topo.cables_per_pair == 2
        assert topo.scale == 1.0

    def test_bisection_is_160g(self):
        from repro.sim.engine import Simulator
        from repro.sim.rng import RngRegistry
        from repro.topology.leafspine import build_leaf_spine

        net = build_leaf_spine(Simulator(), RngRegistry(1), TOPOLOGIES["paper"])
        assert net.bisection_bandwidth_bps() == pytest.approx(160e9)
        assert len(net.hosts) == 32

    def test_paper_config_uses_paper_protocol(self):
        config = build_config({
            "scheme": "clove-ecn", "load": 0.7, "asymmetric": True,
            "topology": "paper", "flow_scale": 1.0,
            "connections_per_client": 1,    # the testbed's persistent connection
            "pairing": "random",            # the paper's server choice
        })
        assert config.pairing == "random"
        assert config.connections_per_client == 1
        assert config.flow_scale == 1.0
        assert config.topology.hosts_per_leaf == 16
