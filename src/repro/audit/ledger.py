"""Packet/byte conservation ledger.

Every packet that enters the fabric must be accounted for when the run
ends: delivered to a host, dropped with a counted reason (queue overflow,
dead link, blackhole, TTL expiry), flushed by a chaos injection, lost
mid-flight by a link that died during serialization, or still sitting in a
queue / on the wire.  The ledger gathers the always-on counters the
net/hypervisor layers keep and checks the balance:

``injected == delivered + dropped + blackholed + ttl_expired +
lost_in_flight + in_flight``

where ``injected = Σ host.tx_nic_packets + Σ switch.icmp_originated`` and
``in_flight = Σ len(queue) + Σ (serialized − delivered − lost)`` per link.

The global balance alone would be an algebraic identity if ``in_flight``
were derived from the same counters it checks — so the ledger also
verifies the *independent* per-queue identities (``enqueued == dequeued +
len(queue)``, transit occupancy never negative) and, when the event queue
fully drained, that nothing claims to still be in flight.

Per-flow accounting rides on the guest transports: the receiver can never
hold bytes the sender never sent, and a finished workload must have every
submitted byte delivered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

from repro.audit.report import SEV_CRITICAL, AuditReport
from repro.telemetry.registry import parse_key, totals_by_name


@dataclass
class LedgerSnapshot:
    """The gathered totals, from a live fabric (:func:`gather`) or from an
    artifact's counters and gauges (:func:`from_counters`)."""

    tx_nic: int = 0
    icmp_originated: int = 0
    delivered: int = 0           # host rx
    dropped: int = 0             # queue drops incl. probe drops and flushes
    blackholed: int = 0
    ttl_expired: int = 0
    lost_in_flight: int = 0
    flushed: int = 0
    queued: int = 0              # packets sitting in egress queues now
    in_transit: int = 0          # serialized but not yet delivered/lost
    #: link name -> (enqueued, dequeued, depth, transit)
    links: Dict[str, Tuple[int, int, int, int]] = field(default_factory=dict)

    @property
    def injected(self) -> int:
        return self.tx_nic + self.icmp_originated

    @property
    def accounted(self) -> int:
        return (
            self.delivered + self.dropped + self.blackholed
            + self.ttl_expired + self.lost_in_flight
            + self.queued + self.in_transit
        )

    @property
    def imbalance(self) -> int:
        """Packets injected but unaccounted for (0 = conserved)."""
        return self.injected - self.accounted

    def add_link(self, name: str, enqueued: int, dequeued: int, depth: int,
                 flushed: int, delivered: int, lost: int) -> None:
        """Fold one link's queue and wire counters in."""
        transit = (dequeued - flushed) - delivered - lost
        self.lost_in_flight += lost
        self.flushed += flushed
        self.queued += depth
        self.in_transit += transit
        self.links[name] = (enqueued, dequeued, depth, transit)


def gather(net, hosts: Iterable) -> LedgerSnapshot:
    """Collect the conservation counters from a live fabric."""
    snap = LedgerSnapshot()
    for host in hosts:
        snap.tx_nic += host.tx_nic_packets
        snap.delivered += host.rx_packets
    for switch in net.switches.values():
        snap.icmp_originated += switch.icmp_originated
        snap.ttl_expired += switch.ttl_expired
        snap.blackholed += switch.blackholed
    for link in net.all_links():
        # Settle the virtual-clock transmitter first so the queued/transit
        # split is exact at this instant.
        link.sync()
        stats = link.queue.stats
        snap.dropped += stats.dropped + stats.probe_dropped
        snap.add_link(link.name, stats.enqueued, stats.dequeued,
                      len(link.queue), link.flushed_packets,
                      link.rx_delivered, link.lost_in_flight)
    return snap


def from_counters(counters: Dict[str, float],
                  gauges: Dict[str, float]) -> LedgerSnapshot:
    """Collect the conservation counters from an artifact's scraped
    ``counters`` / ``gauges`` snapshots (rendered ``name{labels}`` keys).

    Raises ``ValueError`` when the artifact carries no conservation export
    (no ``host.tx_nic_packets`` counter): every artifact a run writes has
    it, so its absence means a truncated or foreign file, not a clean run.
    """
    totals = totals_by_name(counters)
    if "host.tx_nic_packets" not in totals:
        raise ValueError(
            "artifact carries no conservation counters (host.tx_nic_packets)")

    def total(name: str) -> int:
        return int(totals.get(name, 0))

    per_link: Dict[str, Dict[str, int]] = {}
    for values in (counters, gauges):
        for key, value in values.items():
            name, labels = parse_key(key)
            if "link" in labels:
                per_link.setdefault(labels["link"], {})[name] = int(value)
    snap = LedgerSnapshot(
        tx_nic=total("host.tx_nic_packets"),
        icmp_originated=total("switch.icmp_originated"),
        delivered=total("host.rx_packets"),
        dropped=total("queue.dropped") + total("queue.probe_dropped"),
        blackholed=total("switch.blackholed"),
        ttl_expired=total("switch.ttl_expired"),
    )
    for link, values in per_link.items():
        if "queue.enqueued" in values:
            snap.add_link(
                link, values["queue.enqueued"],
                values.get("queue.dequeued", 0),
                values.get("queue.depth_packets", 0),
                values.get("link.flushed_packets", 0),
                values.get("link.rx_delivered", 0),
                values.get("link.lost_in_flight", 0),
            )
    return snap


def check_balance(report: AuditReport, snap: LedgerSnapshot,
                  now: float) -> None:
    """The packet balance of one snapshot: per-queue identities, transit
    signs and the global equation, whichever builder produced it."""
    # Independent per-queue identities: what went in either came out or is
    # still there.  These keep the global balance from being tautological.
    report.note_checked("conservation.queue", 1)
    for name, (enqueued, dequeued, depth, _transit) in snap.links.items():
        if enqueued != dequeued + depth:
            report.record(
                "conservation.queue",
                f"queue on {name}: enqueued {enqueued} != "
                f"dequeued {dequeued} + occupancy {depth}",
                time=now, severity=SEV_CRITICAL,
                link=name, enqueued=enqueued, dequeued=dequeued, depth=depth,
            )

    # Transit occupancy can never be negative — a link cannot deliver more
    # packets than it serialized.
    report.note_checked("conservation.transit", 1)
    for name, (_enqueued, _dequeued, _depth, transit) in snap.links.items():
        if transit < 0:
            report.record(
                "conservation.transit",
                f"link {name} delivered/lost more packets than it "
                f"serialized (transit occupancy {transit})",
                time=now, severity=SEV_CRITICAL, link=name, transit=transit,
            )

    report.note_checked("conservation.global", 1)
    if snap.imbalance != 0:
        report.record(
            "conservation.global",
            f"{abs(snap.imbalance)} packet(s) "
            f"{'unaccounted for' if snap.imbalance > 0 else 'over-accounted'}"
            f": injected {snap.injected} != delivered {snap.delivered} + "
            f"dropped {snap.dropped} + blackholed {snap.blackholed} + "
            f"ttl {snap.ttl_expired} + lost {snap.lost_in_flight} + "
            f"in-flight {snap.queued + snap.in_transit}",
            time=now, severity=SEV_CRITICAL,
            injected=snap.injected, delivered=snap.delivered,
            dropped=snap.dropped, blackholed=snap.blackholed,
            ttl_expired=snap.ttl_expired, lost_in_flight=snap.lost_in_flight,
            queued=snap.queued, in_transit=snap.in_transit,
        )


def check_conservation(
    report: AuditReport,
    net,
    hosts: Iterable,
    now: float,
    drained: bool = False,
    chaos=None,
    workload=None,
    collector=None,
) -> LedgerSnapshot:
    """Run every conservation check; returns the gathered snapshot."""
    hosts = list(hosts)
    snap = gather(net, hosts)
    check_balance(report, snap, now)

    # A fully drained event queue means no packet can still be in flight.
    if drained:
        report.note_checked("conservation.drained", 1)
        if snap.queued or snap.in_transit > 0:
            report.record(
                "conservation.drained",
                f"event queue drained but {snap.queued} packet(s) queued "
                f"and {snap.in_transit} in transit",
                time=now, severity=SEV_CRITICAL,
                queued=snap.queued, in_transit=snap.in_transit,
            )

    # Chaos cross-check: the engine's per-injection flush markers must sum
    # to what the links themselves counted (in run_experiment every link
    # failure goes through the chaos engine).
    if chaos is not None:
        report.note_checked("conservation.chaos_flush", 1)
        marker_flushed = chaos.flushed_packets()
        if marker_flushed != snap.flushed:
            report.record(
                "conservation.chaos_flush",
                f"chaos markers account {marker_flushed} flushed packet(s) "
                f"but links flushed {snap.flushed}",
                time=now, markers=marker_flushed, links=snap.flushed,
            )

    _check_echoes(report, hosts, now)
    _check_flows(report, hosts, now, workload=workload, collector=collector)
    return snap


def _check_echoes(report: AuditReport, hosts: Iterable, now: float) -> None:
    """Control-packet conservation: every echo a vswitch carried must be
    consumed exactly once or lost to a counted fault.

    Per host: ``carried - dropped - delayed + duplicated + delivered_late
    == received + corrupt_dropped + stale_rejected``.  Echo faults only
    add counted terms — a delayed echo still pending at run end was
    counted ``delayed`` but never consumed, so the identity holds at any
    instant, faulted or not.
    """
    report.note_checked("conservation.echo", 1)
    for host in hosts:
        vswitch = getattr(host, "vswitch", None)
        if vswitch is None:
            continue
        faults = getattr(host, "control_faults", None)
        dropped = faults.echoes_dropped if faults is not None else 0
        delayed = faults.echoes_delayed if faults is not None else 0
        duplicated = faults.echoes_duplicated if faults is not None else 0
        late = faults.echoes_delivered_late if faults is not None else 0
        consumed = (
            vswitch.echoes_carried - dropped - delayed + duplicated + late
        )
        accounted = (
            vswitch.echoes_received + vswitch.echoes_corrupt_dropped
            + vswitch.echoes_stale_rejected
        )
        if consumed != accounted:
            report.record(
                "conservation.echo",
                f"echo ledger on {host.name}: carried "
                f"{vswitch.echoes_carried} - dropped {dropped} - delayed "
                f"{delayed} + duplicated {duplicated} + late {late} = "
                f"{consumed} != received {vswitch.echoes_received} + "
                f"corrupt {vswitch.echoes_corrupt_dropped} + stale "
                f"{vswitch.echoes_stale_rejected} = {accounted}",
                time=now, severity=SEV_CRITICAL, host=host.name,
                carried=vswitch.echoes_carried, dropped=dropped,
                delayed=delayed, duplicated=duplicated, delivered_late=late,
                received=vswitch.echoes_received,
                corrupt_dropped=vswitch.echoes_corrupt_dropped,
                stale_rejected=vswitch.echoes_stale_rejected,
            )


def _check_flows(
    report: AuditReport,
    hosts: Iterable,
    now: float,
    workload=None,
    collector=None,
) -> None:
    """Per-flow byte accounting over the guest transports."""
    senders: Dict[object, object] = {}
    receivers: Dict[object, object] = {}
    for host in hosts:
        for endpoint in getattr(host, "_endpoints", {}).values():
            flow = getattr(endpoint, "flow", None)
            if flow is None:
                continue
            if hasattr(endpoint, "snd_una"):
                senders[flow] = endpoint
            elif hasattr(endpoint, "rcv_nxt"):
                receivers[flow] = endpoint

    report.note_checked("conservation.flow", len(senders))
    for flow, sender in senders.items():
        if not 0 <= sender.snd_una <= sender.snd_nxt <= sender.app_bytes:
            report.record(
                "conservation.flow",
                f"sender sequence corrupt on {flow}: "
                f"snd_una={sender.snd_una} snd_nxt={sender.snd_nxt} "
                f"app_bytes={sender.app_bytes}",
                time=now, flow=str(flow),
            )
            continue
        receiver = receivers.get(flow)
        if receiver is None:
            continue
        # The receiver can hold at most what was sent; the sender can have
        # acked at most what the receiver holds.
        if not sender.snd_una <= receiver.rcv_nxt <= sender.snd_nxt:
            report.record(
                "conservation.flow",
                f"byte stream on {flow} not conserved: receiver at "
                f"{receiver.rcv_nxt} outside sender window "
                f"[{sender.snd_una}, {sender.snd_nxt}]",
                time=now, flow=str(flow),
                rcv_nxt=receiver.rcv_nxt,
                snd_una=sender.snd_una, snd_nxt=sender.snd_nxt,
            )

    if workload is not None:
        report.note_checked("conservation.workload", 1)
        submitted = workload.jobs_submitted
        completed = workload.jobs_completed
        if not 0 <= completed <= submitted <= workload.total_jobs:
            report.record(
                "conservation.workload",
                f"job accounting corrupt: completed {completed} / "
                f"submitted {submitted} / total {workload.total_jobs}",
                time=now, submitted=submitted, completed=completed,
                total=workload.total_jobs,
            )
        if collector is not None:
            jobs = getattr(collector, "jobs", [])
            recorded_done = sum(1 for j in jobs if j.completion is not None)
            if len(jobs) != submitted or recorded_done != completed:
                report.record(
                    "conservation.workload",
                    f"collector disagrees with generator: recorded "
                    f"{len(jobs)}/{recorded_done} vs submitted/completed "
                    f"{submitted}/{completed}",
                    time=now, recorded=len(jobs), recorded_done=recorded_done,
                    submitted=submitted, completed=completed,
                )
        if getattr(workload, "done", False):
            # Every submitted byte must have arrived in order.
            report.note_checked("conservation.flow_complete", 1)
            for connection in getattr(workload, "_connections", ()):
                sender = getattr(connection, "sender", None)
                receiver = getattr(connection, "receiver", None)
                if sender is None or receiver is None:
                    continue
                if receiver.bytes_delivered != sender.app_bytes:
                    report.record(
                        "conservation.flow_complete",
                        f"workload done but {receiver.flow} delivered "
                        f"{receiver.bytes_delivered} of "
                        f"{sender.app_bytes} byte(s)",
                        time=now, flow=str(receiver.flow),
                        delivered=receiver.bytes_delivered,
                        submitted=sender.app_bytes,
                    )
