"""Tests for the Section 7 flowlet optimization on Clove-ECN: the adaptive gap."""

import pytest

from repro.core.clove import CloveEcnPolicy, CloveParams
from repro.hypervisor.policy import PathFeedback
from repro.net.packet import FlowKey

from tests.conftest import make_data_packet

FLOW = FlowKey(1, 42, 1000, 80)
PORTS = [50001, 50002, 50003, 50004]
TRACES = [("a",), ("b",), ("c",), ("d",)]


class TestAdaptiveGap:
    def test_enables_latency_feedback(self):
        policy = CloveEcnPolicy(adaptive_gap=True)
        assert policy.wants_latency

    def test_gap_grows_with_delay_spread(self):
        params = CloveParams(flowlet_gap=100e-6)
        policy = CloveEcnPolicy(params, adaptive_gap=True)
        policy.set_paths(42, PORTS, TRACES)
        # No delay info yet: base gap.
        assert policy._adapted_gap(42) == pytest.approx(100e-6)
        policy.on_path_feedback(PathFeedback(42, PORTS[0], False, util=50e-6), 0.0)
        policy.on_path_feedback(PathFeedback(42, PORTS[1], False, util=450e-6), 0.0)
        # Spread of 400us added on top of the base gap.
        assert policy._adapted_gap(42) == pytest.approx(500e-6)

    def test_selection_applies_adapted_gap(self):
        params = CloveParams(flowlet_gap=100e-6)
        policy = CloveEcnPolicy(params, adaptive_gap=True)
        policy.set_paths(42, PORTS, TRACES)
        policy.on_path_feedback(PathFeedback(42, PORTS[0], False, util=0.0), 0.0)
        policy.on_path_feedback(PathFeedback(42, PORTS[1], False, util=1e-3), 0.0)
        first = policy.select_source_port(FLOW, make_data_packet(FLOW, 0, 100, 0.0), 0.0)
        # 500us later: inside the widened (1.1ms) gap, so same flowlet.
        later = policy.select_source_port(
            FLOW, make_data_packet(FLOW, 0, 100, 0.0), 500e-6
        )
        assert later == first

    def test_without_adaptive_gap_flowlet_splits(self):
        params = CloveParams(flowlet_gap=100e-6)
        policy = CloveEcnPolicy(params, adaptive_gap=False)
        policy.set_paths(42, PORTS, TRACES)
        seen = set()
        t = 0.0
        for _ in range(30):
            seen.add(policy.select_source_port(
                FLOW, make_data_packet(FLOW, 0, 100, t), t
            ))
            t += 500e-6  # always beyond the base gap
        assert len(seen) > 1
