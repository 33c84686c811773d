"""Structural invariant checks, one function per layer.

Each check walks live simulation state read-only (no RNG draws, no event
scheduling — an audited run processes exactly the event sequence an
unaudited run would) and records findings on an
:class:`~repro.audit.report.AuditReport`.  The auditor runs them at every
harness checkpoint and once more at finalize.
"""

from __future__ import annotations

from typing import Iterable

from repro.audit.report import SEV_CRITICAL, AuditReport

#: tolerance for weight sums (weights are floats renormalized per update)
WEIGHT_TOLERANCE = 1e-6


def check_queues(report: AuditReport, net, now: float) -> None:
    """Queue occupancy: bounded, non-negative, byte count consistent."""
    report.note_checked("queue.occupancy", 1)
    for link in net.all_links():
        # Fold lazily-evicted (already transmitting) packets out of the
        # buffer so occupancy reflects the true waiting set.
        link.sync()
        queue = link.queue
        depth = len(queue)
        if depth > queue.capacity_packets:
            report.record(
                "queue.occupancy",
                f"queue on {link.name} holds {depth} packet(s), over its "
                f"capacity of {queue.capacity_packets}",
                time=now, severity=SEV_CRITICAL,
                link=link.name, depth=depth,
                capacity=queue.capacity_packets,
            )
        actual_bytes = sum(entry[0].size for entry in queue._items)
        if queue.byte_count != actual_bytes or queue.byte_count < 0:
            report.record(
                "queue.occupancy",
                f"queue on {link.name} byte counter {queue.byte_count} "
                f"disagrees with its contents ({actual_bytes} byte(s) "
                f"over {depth} packet(s))",
                time=now, severity=SEV_CRITICAL,
                link=link.name, byte_count=queue.byte_count,
                actual=actual_bytes,
            )


def check_weight_tables(report: AuditReport, hosts: Iterable, now: float) -> None:
    """WeightedPathTable: selectable weights sum to 1, quarantined pinned
    to 0 — across every quarantine/probation transition."""
    report.note_checked("weights.sum", 1)
    for host in hosts:
        weights = host.vswitch.weights
        if weights is None:
            continue
        for violation in weights.invariant_violations():
            report.record(
                "weights.sum", f"{host.name}: {violation['message']}",
                time=now, host=host.name, **{
                    k: v for k, v in violation.items() if k != "message"
                },
            )


def check_transports(report: AuditReport, hosts: Iterable, now: float) -> None:
    """TCP/MPTCP sequence sanity on every registered endpoint.

    Cross-endpoint (sender vs receiver) window containment lives in the
    conservation ledger; these are the single-endpoint invariants.
    """
    report.note_checked("transport.sequence", 1)
    for host in hosts:
        for endpoint in getattr(host, "_endpoints", {}).values():
            if hasattr(endpoint, "snd_una"):
                if not 0 <= endpoint.snd_una <= endpoint.snd_nxt <= endpoint.app_bytes:
                    report.record(
                        "transport.sequence",
                        f"sender on {host.name} corrupt: "
                        f"snd_una={endpoint.snd_una} "
                        f"snd_nxt={endpoint.snd_nxt} "
                        f"app_bytes={endpoint.app_bytes}",
                        time=now, host=host.name, flow=str(endpoint.flow),
                    )
                if endpoint.cwnd <= 0:
                    report.record(
                        "transport.sequence",
                        f"sender on {host.name} has non-positive cwnd "
                        f"{endpoint.cwnd}",
                        time=now, host=host.name, flow=str(endpoint.flow),
                    )
            elif hasattr(endpoint, "rcv_nxt"):
                _check_receiver(report, host, endpoint, now)


def _check_receiver(report: AuditReport, host, receiver, now: float) -> None:
    if receiver.bytes_delivered != receiver.rcv_nxt:
        report.record(
            "transport.sequence",
            f"receiver on {host.name} delivered-byte counter "
            f"{receiver.bytes_delivered} != rcv_nxt {receiver.rcv_nxt}",
            time=now, host=host.name, flow=str(receiver.flow),
        )
    # Out-of-order intervals: sorted, disjoint, strictly above rcv_nxt.
    previous_end = receiver.rcv_nxt
    for start, end in receiver._ooo:
        if start < previous_end or end <= start:
            report.record(
                "transport.reassembly",
                f"receiver on {host.name} out-of-order intervals corrupt "
                f"(interval [{start}, {end}) against cursor {previous_end})",
                time=now, host=host.name, flow=str(receiver.flow),
                start=start, end=end, rcv_nxt=receiver.rcv_nxt,
            )
            return
        previous_end = end


def check_reassembly(report: AuditReport, hosts: Iterable, now: float) -> None:
    """Presto flowcell reassembly buffers: no segment below the cursor."""
    report.note_checked("transport.reassembly", 1)
    for host in hosts:
        for flow, buffer in host.vswitch._reassembly.items():
            if buffer.expected is None:
                continue
            below = [seq for seq in buffer.segments if seq < buffer.expected]
            if below:
                report.record(
                    "transport.reassembly",
                    f"reassembly buffer on {host.name} holds segment(s) "
                    f"below its delivery cursor {buffer.expected}: "
                    f"{sorted(below)[:4]}",
                    time=now, host=host.name, flow=str(flow),
                    expected=buffer.expected,
                )


def check_event_heap(report: AuditReport, sim, now: float) -> None:
    """The engine's calendar queue still satisfies the heap property.

    Popped-order monotonicity is checked per event by the audited
    ``Simulator.run``; this validates the heap structure itself (a
    corrupted entry would only surface as a mis-ordered pop much later).
    """
    report.note_checked("engine.heap", 1)
    queue = sim._queue
    n = len(queue)
    for i in range(n):
        left, right = 2 * i + 1, 2 * i + 2
        if (left < n and queue[left][:2] < queue[i][:2]) or (
            right < n and queue[right][:2] < queue[i][:2]
        ):
            report.record(
                "engine.heap",
                f"event heap property violated at index {i} "
                f"(t={queue[i][0]:.9f})",
                time=now, severity=SEV_CRITICAL, index=i,
            )
            return
    # Nothing already queued may predate the current sim time.
    if queue and queue[0][0] < now:
        report.record(
            "engine.heap",
            f"head event at t={queue[0][0]:.9f} predates now={now:.9f}",
            time=now, severity=SEV_CRITICAL,
        )


def run_all(report: AuditReport, sim, net, hosts: Iterable, now: float) -> None:
    """One structural checkpoint over every layer."""
    hosts = list(hosts)
    check_queues(report, net, now)
    check_weight_tables(report, hosts, now)
    check_transports(report, hosts, now)
    check_reassembly(report, hosts, now)
    check_event_heap(report, sim, now)
