"""The sender's deadline timers against the classic event-per-ACK timers.

``TcpSender`` keeps one pending RTO event and one pending TLP event.  A new
ACK only moves ``_rto_deadline`` / ``_tlp_deadline``; an event that fires
before its live deadline re-schedules itself there, and ``_arm_rto`` /
``_arm_tlp`` cancel the pending event only when the new deadline is
*earlier* than it (the backoff was reset).  The claim is that this fires
every timeout and every tail loss probe at exactly the instant of the
textbook scheme.

``EventPerAckSender`` below is that textbook scheme: every restart cancels
both pending events and schedules new ones at the fresh deadlines.  It
shares everything else with ``TcpSender`` (recovery, ECN, RTT estimation),
so any difference in what the two send is a timer difference.

Hypothesis draws a few jobs and two drop sets (the n-th data segment the
sender transmits, the n-th ACK the receiver sends) and runs both senders on
the same point-to-point wire.  They must transmit the same
``(time, seq, len)`` sequence, and time out and probe at the same instants.
"""

from hypothesis import example, given, settings, strategies as st

from repro.net.packet import MSS, FlowKey
from repro.sim.engine import Simulator
from repro.transport.tcp import TcpReceiver, TcpSender

RATE_BPS = 10e9
MIN_RTO = 1e-3
#: long enough for six backed-off timeouts in a row to run out
HORIZON_S = 2.0


class EventPerAckSender(TcpSender):
    """Classic timers: cancel and re-arm real events on every restart."""

    def _arm_rto(self):
        if self.flight_size <= 0:
            self._cancel_rto()
            return
        if self._rto_event is None:
            self._rto_event = self.sim.at(
                self.sim.now + self.rto * self.backoff, self._on_rto)
        self._arm_tlp()

    def _arm_tlp(self):
        if self.srtt is None or self.in_recovery or self._tlp_event is not None:
            return
        pto = min(max(2 * self.srtt, 1e-4), self.rto * self.backoff * 0.9)
        self._tlp_event = self.sim.at(self.sim.now + pto, self._on_tlp)

    def _restart_rto(self):
        self._cancel_rto()
        self._arm_rto()

    def _cancel_rto(self):
        for event in (self._rto_event, self._tlp_event):
            if event is not None:
                event.cancel()
        self._rto_event = self._tlp_event = None

    # An event of this class fires only when it is due: mark it due and let
    # the shared handler run its body.
    def _on_rto(self):
        self._rto_deadline = self.sim.now
        super()._on_rto()

    def _on_tlp(self):
        self._tlp_deadline = self.sim.now
        super()._on_tlp()


class End:
    """One end of a point-to-point wire, the ``host`` an endpoint sends
    through: packets serialize at ``RATE_BPS`` and arrive ``delay`` later,
    except the ones whose send index is in ``drops``."""

    def __init__(self, sim, delay, drops):
        self.sim = sim
        self.delay = delay
        self.drops = drops
        self.peer = None
        self.sent = 0
        self.free_at = 0.0

    def send_from_guest(self, packet):
        index, self.sent = self.sent, self.sent + 1
        self.free_at = max(self.sim.now, self.free_at) + packet.size * 8 / RATE_BPS
        if index not in self.drops:
            self.sim.at(self.free_at + self.delay, self.peer.on_packet, packet)


def run(sender_cls, delay, jobs, data_drops, ack_drops):
    """Run ``jobs`` (start time, bytes) through one sender; returns its
    transmissions as ``(time, seq, len, timeouts, tlp_probes)`` rows."""
    sim = Simulator()
    data_end = End(sim, delay, data_drops)
    ack_end = End(sim, delay, ack_drops)
    flow = FlowKey(1, 2, 1000, 80)
    sender = sender_cls(sim, data_end, flow, MIN_RTO)
    receiver = TcpReceiver(sim, ack_end, flow)
    data_end.peer, ack_end.peer = receiver, sender
    log = []
    transmit = sender._transmit

    def logged(seq, payload):
        log.append((sim.now, seq, payload, sender.timeouts, sender.tlp_probes))
        transmit(seq, payload)

    sender._transmit = logged
    for start, nbytes in jobs:
        sim.at(start, sender.send, nbytes)
    sim.run(until=HORIZON_S)
    assert receiver.rcv_nxt == sum(nbytes for _, nbytes in jobs)
    return log


def instants(log, column):
    """The times at which counter ``column`` of the log went up."""
    out, last = [], 0
    for row in log:
        if row[column] > last:
            out.append(row[0])
            last = row[column]
    return out


_JOBS = st.lists(
    st.tuples(st.sampled_from([0.0, 2e-4, 5e-3, 0.05]),
              st.integers(1, 40 * MSS)),
    min_size=1, max_size=3,
).map(lambda jobs: sorted(jobs, key=lambda job: job[0]))
_DROPS = st.sets(st.integers(0, 60), max_size=12)
#: one-way delays that put the probe timeout on each of its three terms:
#: the 100 us floor, 2 SRTT, and 0.9 RTO x backoff (a backoff reset pulls
#: that deadline in)
_DELAYS = st.sampled_from([5e-6, 60e-6, 1e-3])


@settings(max_examples=150, deadline=None)
@given(delay=_DELAYS, jobs=_JOBS, data_drops=_DROPS, ack_drops=_DROPS)
# the two cases that must cancel and re-arm: an ACK resets the backoff
# while the backed-off RTO event is pending, and then a second RTO ...
@example(delay=5e-6, jobs=[(0.0, 4 * MSS)], data_drops={3, 4, 5, 7},
         ack_drops=set())
# ... or, where 0.9 RTO caps the probe timeout, a backed-off TLP event
@example(delay=1e-3, jobs=[(0.0, 20441)], data_drops={0}, ack_drops=set())
def test_deadline_timers_match_event_per_ack(delay, jobs, data_drops,
                                             ack_drops):
    fast = run(TcpSender, delay, jobs, data_drops, ack_drops)
    reference = run(EventPerAckSender, delay, jobs, data_drops, ack_drops)
    assert [row[:3] for row in fast] == [row[:3] for row in reference]
    assert instants(fast, 3) == instants(reference, 3)   # timeouts
    assert instants(fast, 4) == instants(reference, 4)   # tail loss probes
