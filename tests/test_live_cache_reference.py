"""The switch's cached live ECMP members against the uncached rule.

``Switch.forward`` keeps one ``_live_cache`` entry per destination: the
live member list, plus what it was computed at (``Link.state_gen``, the
stale-window horizon ``now - failover_delay``, the earliest ``down_since``
among the dead links it kept).  The rule it caches is one comprehension::

    [link for link in group if link.up or link.down_since > horizon]

Hypothesis drives switches through random programs of ``fail`` /
``recover`` / clock advances / ``failover_delay`` changes, at a delay of 0
(the members are the up links) and > 0 (a dead link stays a member for
``failover_delay`` after it failed), and after every step forwards one
packet through each switch: the list ``select_port`` is handed must equal
the comprehension evaluated right then.

A plain ``Switch`` (one whose egress is the static hash) also keeps a
forwarding cache: routed 5-tuple -> egress link, under the same validity
rule.  The second oracle drives plain switches through the same programs,
hands a few fixed flows to ``Switch.receive`` after every step, and reads
the egress off links that record every ``send``: it must be the
comprehension's list indexed by ``hash % len``, and with an empty list
nothing is sent and ``blackholed`` counts the packet.

Two simulators run interleaved in one process, and their links share one
``Link.state_gen`` (a class attribute).  What each may assume: a ``fail``
or ``recover`` in the *other* simulator bumps the generation, so this
simulator's entries miss and are recomputed to the same list (a spurious
miss, never a wrong list); every flip of one of its *own* links bumps it
too, so no flip goes unseen.  Clock and horizon are per switch: the window
test reads the switch's own simulator.
"""

from hypothesis import given, settings, strategies as st

from repro.net.hashing import EcmpHasher
from repro.net.link import Link
from repro.net.packet import FlowKey, Packet
from repro.net.switch import Switch
from repro.sim.engine import Simulator

DST = 99
N_LINKS = 4
#: straddle the 10 ms window and its exact edge
_DELAYS = st.sampled_from([0.0, 0.0, 0.01])
_STEPS = st.sampled_from([0.0, 0.001, 0.004, 0.005, 0.01, 0.0100001, 0.03])


class RecordingSwitch(Switch):
    """A switch that keeps the member list of each forwarding decision."""

    def select_port(self, packet, key, live, link_in):
        self.seen = list(live)
        return super().select_port(packet, key, live, link_in)


class Fabric:
    """One simulator, one switch, one ECMP group of ``N_LINKS`` links."""

    def __init__(self, index, failover_delay):
        self.sim = Simulator()
        self.switch = RecordingSwitch(self.sim, f"S{index}", ip=index,
                                      hash_seed=index)
        self.switch.failover_delay = failover_delay
        self.links = [Link(self.sim, f"S{index}#{i}", 1e9, 1e-6)
                      for i in range(N_LINKS)]
        for link in self.links:
            link.connect(lambda packet, link: None)
        self.switch.add_route(DST, self.links)
        self.sport = 0

    def apply(self, op):
        kind = op[0]
        if kind == "fail":
            link = self.links[op[1]]
            if link.up:
                link.fail()
        elif kind == "recover":
            link = self.links[op[1]]
            if not link.up:
                link.recover()
        elif kind == "advance":
            self.sim.run(until=self.sim.now + op[1])
        elif kind == "delay":
            self.switch.failover_delay = op[1]

    def uncached(self):
        horizon = self.sim.now - self.switch.failover_delay
        return [link for link in self.links
                if link.up or link.down_since > horizon]

    def check(self):
        """Forward one packet; the members used must be the uncached ones."""
        self.sport += 1
        self.switch.seen = None
        packet = Packet(FlowKey(1, DST, self.sport, 80), payload_bytes=100)
        self.switch.forward(packet, None)
        expected = self.uncached()
        if expected:
            assert self.switch.seen == expected
        else:
            assert self.switch.seen is None     # blackholed, no choice made


class RecordingLink(Link):
    """A link that notes every packet a switch hands it."""

    def __init__(self, sim, name, sent):
        super().__init__(sim, name, 1e9, 1e-6)
        self.sent = sent

    def send(self, packet):
        self.sent.append((self, packet))
        return super().send(packet)


class CachedFabric(Fabric):
    """One plain switch (forwarding cache on) over recording links."""

    #: flows handed to the switch after every step: the same key objects
    #: each time, so all but the first pass can hit the cache
    FLOWS = [FlowKey(1, DST, sport, 80) for sport in (1, 2, 3)]

    def __init__(self, index, failover_delay):
        self.sim = Simulator()
        self.switch = Switch(self.sim, f"S{index}", ip=index, hash_seed=index)
        assert self.switch._fib is not None
        self.switch.failover_delay = failover_delay
        self.sent = []
        self.links = [RecordingLink(self.sim, f"S{index}#{i}", self.sent)
                      for i in range(N_LINKS)]
        for link in self.links:
            link.connect(lambda packet, link: None)
        self.switch.add_route(DST, self.links)
        self.hasher = EcmpHasher(index)

    def check(self):
        """Each flow's egress is the uncached members at ``hash % len``."""
        live = self.uncached()
        for key in self.FLOWS:
            del self.sent[:]
            blackholed = self.switch.blackholed
            packet = Packet(key, payload_bytes=100)
            self.switch.receive(packet, None)
            if live:
                expected = live[self.hasher.hash_key(key) % len(live)]
                assert self.sent == [(expected, packet)]
                assert self.switch.blackholed == blackholed
            else:
                assert self.sent == []
                assert self.switch.blackholed == blackholed + 1


_ops = st.one_of(
    st.tuples(st.just("fail"), st.integers(0, N_LINKS - 1)),
    st.tuples(st.just("recover"), st.integers(0, N_LINKS - 1)),
    st.tuples(st.just("advance"), _STEPS),
    st.tuples(st.just("delay"), _DELAYS),
)
_program = st.lists(st.tuples(st.integers(0, 1), _ops), min_size=1,
                    max_size=40)


@settings(max_examples=300, deadline=None)
@given(delays=st.tuples(_DELAYS, _DELAYS), program=_program)
def test_cached_members_equal_the_uncached_rule(delays, program):
    fabrics = [Fabric(i, delay) for i, delay in enumerate(delays)]
    for fabric in fabrics:
        fabric.check()
    for which, op in program:
        fabrics[which].apply(op)
        for fabric in fabrics:
            fabric.check()


def test_a_flip_in_another_simulator_is_a_spurious_miss():
    mine, other = Fabric(0, 0.01), Fabric(1, 0.0)
    mine.links[0].fail()
    mine.check()
    entry = mine.switch._live_cache[DST]
    other.links[2].fail()
    mine.check()
    refreshed = mine.switch._live_cache[DST]
    assert refreshed is not entry                 # missed on the shared gen
    assert refreshed[0] == entry[0] == mine.links  # ... to the same list
    mine.sim.run(until=0.02)
    mine.check()
    assert mine.switch.seen == mine.links[1:]     # the window has closed


@settings(max_examples=300, deadline=None)
@given(delays=st.tuples(_DELAYS, _DELAYS), program=_program)
def test_cached_egress_equals_the_uncached_hash(delays, program):
    fabrics = [CachedFabric(i, delay) for i, delay in enumerate(delays)]
    for fabric in fabrics:
        fabric.check()
    for which, op in program:
        fabrics[which].apply(op)
        for fabric in fabrics:
            fabric.check()


def test_only_the_plain_static_hash_keeps_a_forwarding_cache():
    from repro.baselines.conga import CongaLeafSwitch, CongaSpineSwitch
    from repro.baselines.letflow import LetFlowSwitch

    sim = Simulator()
    assert Switch(sim, "plain", ip=1, hash_seed=1)._fib is not None
    assert Switch(sim, "int", ip=2, hash_seed=1, int_capable=True)._fib is None
    for cls in (RecordingSwitch, CongaLeafSwitch, CongaSpineSwitch,
                LetFlowSwitch):
        assert cls(sim, cls.__name__, ip=3, hash_seed=1)._fib is None
