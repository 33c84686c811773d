"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

from hypothesis import given, settings, strategies as st

from repro.core.discovery import select_disjoint
from repro.core.flowlet import FlowletTable
from repro.core.weights import WeightedPathTable
from repro.metrics.collector import percentile
from repro.net.dre import DiscountingRateEstimator
from repro.net.hashing import EcmpHasher
from repro.net.packet import FlowKey
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.sim.engine import Simulator
from repro.workloads.distributions import EmpiricalCdf
import random


flow_keys = st.builds(
    FlowKey,
    src_ip=st.integers(0, 2**16),
    dst_ip=st.integers(0, 2**16),
    src_port=st.integers(0, 65535),
    dst_port=st.integers(0, 65535),
    proto=st.sampled_from([6, 17]),
)


class TestHashingProperties:
    @given(flow_keys, st.integers(1, 64), st.integers(0, 2**32))
    def test_select_in_range_and_deterministic(self, key, n, seed):
        hasher = EcmpHasher(seed)
        choice = hasher.select(key, n)
        assert 0 <= choice < n
        assert hasher.select(key, n) == choice

    @given(flow_keys)
    def test_reverse_is_involution(self, key):
        assert key.reversed().reversed() == key


class TestWeightProperties:
    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=60),
        st.floats(0.05, 0.9),
    )
    def test_weights_remain_normalized_and_positive(self, marks, reduction):
        table = WeightedPathTable(reduction_factor=reduction)
        ports = [100, 200, 300, 400]
        table.set_paths(1, ports, [("a",), ("b",), ("c",), ("d",)])
        for i, index in enumerate(marks):
            table.mark_congested(1, ports[index], now=i * 1e-5)
            weights = table.weights_for(1)
            assert math.isclose(sum(weights.values()), 1.0, rel_tol=1e-9)
            assert all(w > 0 for w in weights.values())

    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8))
    def test_wrr_long_run_frequency_matches_weights(self, raw):
        total = sum(raw)
        if total <= 0:
            raw = [1.0] * len(raw)
            total = float(len(raw))
        table = WeightedPathTable()
        ports = list(range(len(raw)))
        table.set_paths(1, ports, [(f"t{i}",) for i in ports])
        table.set_static_weights(1, raw)
        n = 2000
        counts = {p: 0 for p in ports}
        for _ in range(n):
            counts[table.next_port(1)] += 1
        weights = table.weights_for(1)
        for port in ports:
            assert abs(counts[port] / n - weights[port]) < 0.02


class TestFlowletProperties:
    @given(st.lists(st.floats(1e-7, 1e-2), min_size=1, max_size=200))
    def test_flowlet_ids_monotonic(self, gaps):
        table = FlowletTable(gap=1e-4)
        key = ("flow",)
        now = 0.0
        last_id = -1
        for gap in gaps:
            now += gap
            port, _fid = table.lookup(key, now)
            if port is None:
                fid = table.assign(key, 1, now)
                assert fid > last_id
                last_id = fid

    @given(st.lists(st.floats(0, 9e-5), min_size=1, max_size=100))
    def test_no_new_flowlet_within_gap(self, deltas):
        table = FlowletTable(gap=1e-4)
        key = ("flow",)
        table.assign(key, 7, 0.0)
        now = 0.0
        for delta in deltas:
            now += min(delta, 9e-5)
            port, _ = table.lookup(key, now)
            assert port == 7


class TestQueueProperties:
    """The egress buffer as its link fills and drains it."""

    @given(st.lists(st.sampled_from(["enq", "enq", "tick"]), min_size=1, max_size=300))
    def test_occupancy_invariants(self, ops):
        sim = Simulator()
        queue = DropTailQueue(capacity_packets=16, ecn_threshold_packets=4)
        link = Link(sim, "l", rate_bps=1e9, delay_s=0.0, queue=queue)
        link.connect(lambda packet, _link: None)
        flow = FlowKey(1, 2, 3, 4)
        for op in ops:
            if op == "enq":
                link.send(Packet(flow, payload_bytes=100))
            else:
                sim.run(until=sim.now + 1e-6)   # ~ one serialization
            link.sync()
            assert 0 <= len(queue) <= 16
            assert queue.byte_count == sum(entry[0].size for entry in queue._items)
            assert queue.stats.enqueued - queue.stats.dequeued == len(queue)

    @given(st.integers(1, 50), st.integers(0, 60))
    def test_never_exceeds_capacity(self, capacity, offered):
        link = Link(Simulator(), "l", rate_bps=1e9, delay_s=0.0,
                    queue=DropTailQueue(capacity, ecn_threshold_packets=None))
        flow = FlowKey(1, 2, 3, 4)
        for _ in range(offered):
            link.send(Packet(flow, payload_bytes=10))
        assert len(link.queue) <= capacity
        # the first packet is on the wire; ``capacity`` more may wait
        assert link.queue.stats.dropped == max(0, offered - capacity - 1)


class TestDreProperties:
    @given(
        st.lists(st.tuples(st.integers(1, 10_000), st.floats(0, 1e-3)),
                 min_size=1, max_size=100)
    )
    def test_utilization_nonnegative_and_decaying(self, events):
        dre = DiscountingRateEstimator(rate_bps=1e9)
        now = 0.0
        for nbytes, gap in events:
            now += gap
            dre.record(nbytes, now)
            assert dre.utilization(now) >= 0.0
        later = dre.utilization(now + 0.1)
        assert later <= dre.utilization(now) + 1e-12


class TestDisjointSelectionProperties:
    @given(
        st.dictionaries(
            st.integers(1024, 65535),
            st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=4).map(tuple),
            min_size=1,
            max_size=20,
        ),
        st.integers(1, 8),
    )
    def test_selection_unique_and_bounded(self, candidates, k):
        selection = select_disjoint(candidates, k)
        traces = [t for _p, t in selection]
        assert len(traces) == len(set(traces))      # no duplicate paths
        assert len(selection) <= k
        assert all(p in candidates for p, _t in selection)
        unique_traces = len(set(candidates.values()))
        assert len(selection) == min(k, unique_traces)


class TestDistributionProperties:
    @given(st.integers(0, 2**31), st.floats(0.001, 10.0))
    def test_samples_scale_with_support(self, seed, scale):
        dist = EmpiricalCdf([(1_000, 0.0), (10_000, 0.5), (100_000, 1.0)], scale=scale)
        rng = random.Random(seed)
        sample = dist.sample(rng)
        assert 1_000 * scale * 0.99 <= sample <= 100_000 * scale * 1.01 or sample == 1


class TestPercentileProperties:
    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=500),
           st.floats(0.1, 100.0))
    def test_percentile_is_member_and_bounded(self, values, q):
        values.sort()
        result = percentile(values, q)
        assert result in values
        assert values[0] <= result <= values[-1]

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=200))
    def test_percentile_monotone_in_q(self, values):
        values.sort()
        assert percentile(values, 50) <= percentile(values, 99)
