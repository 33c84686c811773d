"""Tests for Presto-style reassembly in the virtual switch (the file keeps
its old name so the test ids stay stable)."""

from repro.baselines.presto import PrestoPolicy
from repro.net.packet import FlowKey, MSS

from tests.conftest import make_fabric


class TestPrestoReassemblyPath:
    def _presto_fabric(self):
        policies = {}

        def factory(name, index):
            policies[name] = PrestoPolicy(flowcell_bytes=2 * MSS)
            return policies[name]

        sim, net, hosts = make_fabric(policy_factory=factory)
        # Install paths directly (skip discovery for unit scope).
        from repro.net.packet import STT_DST_PORT
        for name, host in hosts.items():
            for other, o in hosts.items():
                if other != name:
                    leaf = net.switches["L1" if other.startswith("h1") else "L2"]
                    group = leaf.routes[o.ip]
                    ports, seen = [], set()
                    for sport in range(49152, 49152 + 300):
                        key = FlowKey(host.ip, o.ip, sport, STT_DST_PORT)
                        idx = leaf.hasher.select(key, len(group))
                        if idx not in seen:
                            seen.add(idx)
                            ports.append(sport)
                        if len(ports) == len(group):
                            break
                    policies[name].set_paths(o.ip, ports, [(f"p{i}",) for i in range(len(ports))])
        return sim, net, hosts, policies

    def test_flow_completes_over_sprayed_cells(self):
        sim, net, hosts, policies = self._presto_fabric()
        from repro.transport.tcp import open_connection
        connection = open_connection(hosts["h1_0"], hosts["h2_0"], 1000, 80)
        done = []
        connection.start_flow(1_000_000, lambda: done.append(sim.now))
        sim.run(until=2.0)
        assert done

    def test_receiver_sees_in_order_despite_spraying(self):
        sim, net, hosts, policies = self._presto_fabric()
        from repro.transport.tcp import open_connection
        connection = open_connection(hosts["h1_0"], hosts["h2_0"], 1000, 80)
        connection.start_flow(500_000, lambda: None)
        sim.run(until=2.0)
        # Reassembly in the vswitch should hide almost all reordering from
        # the guest: out-of-order arrivals at the TCP layer stay rare.
        receiver = connection.receiver
        assert receiver.rcv_nxt == 500_000
        assert receiver.ooo_packets <= receiver.packets_received * 0.05

    def test_flowcells_used_multiple_paths(self):
        sim, net, hosts, policies = self._presto_fabric()
        from repro.transport.tcp import open_connection
        connection = open_connection(hosts["h1_0"], hosts["h2_0"], 1000, 80)
        connection.start_flow(500_000, lambda: None)
        sim.run(until=2.0)
        assert policies["h1_0"].flowcells_started > 10
