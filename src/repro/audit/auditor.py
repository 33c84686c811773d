"""The :class:`Auditor` — the one object the harness wires into a run.

The auditor owns the :class:`~repro.audit.report.AuditReport`, the
determinism digest every engine event is folded into, and the cross-host
ECN causality log the vswitch hooks feed.  Lifecycle:

``attach()`` before the workload starts → the harness calls
``checkpoint()`` between simulation chunks → ``finalize()`` after the
chaos engine settles runs the conservation ledger, stamps the digest and
returns the report.

The auditor schedules **zero** simulator events and draws nothing from any
RNG: an audited run processes the exact event sequence an unaudited run
would, so the digest describes the plain run — checkpoints piggyback on
the harness's existing chunk loop rather than on sim events.
"""

from __future__ import annotations

from typing import Any, Dict, Set, Tuple

from repro.audit import invariants, ledger
from repro.audit.digest import StreamDigest
from repro.audit.report import (
    MODE_REPORT,
    SEV_CRITICAL,
    AuditReport,
)


class Auditor:
    """Runtime invariant checker for one simulation run."""

    def __init__(self, mode: str = MODE_REPORT, telemetry=None) -> None:
        self.report = AuditReport(mode=mode)
        self.telemetry = telemetry
        self._emitted = 0  # findings already mirrored to telemetry events

        #: the determinism digest ``Simulator.run`` folds every event into,
        #: and the time of the last event it saw
        self.digest = StreamDigest()
        self.last_event_time = float("-inf")

        # ECN causality: (observer host ip, remote source ip, path port)
        # for every CE mark observed at a receiving vswitch; an STT echo
        # consumed at the sender must have a matching entry.
        self._ce_marks: Set[Tuple[str, str, int]] = set()
        self._echo_checks = 0

        # Wired by attach()
        self.sim = None
        self.net = None
        self.hosts: Tuple = ()
        self.workload = None
        self.collector = None
        self.chaos = None
        self._finalized = False

    @property
    def mode(self) -> str:
        return self.report.mode

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(
        self,
        sim,
        net,
        hosts,
        workload=None,
        collector=None,
        chaos=None,
    ) -> "Auditor":
        """Hook the assembled fabric; call before the workload starts."""
        self.sim = sim
        self.net = net
        self.hosts = tuple(
            hosts.values() if hasattr(hosts, "values") else hosts
        )
        self.workload = workload
        self.collector = collector
        self.chaos = chaos
        sim.auditor = self
        for host in self.hosts:
            host.vswitch._audit = self
        return self

    def detach(self) -> None:
        """Unhook (idempotent); leaves the report intact."""
        if self.sim is not None and getattr(self.sim, "auditor", None) is self:
            self.sim.auditor = None
        for host in self.hosts:
            if getattr(host.vswitch, "_audit", None) is self:
                host.vswitch._audit = None

    # ------------------------------------------------------------------
    # Engine hook (Simulator.run checks and digests every event inline)
    # ------------------------------------------------------------------
    def on_time_regression(self, time: float, last_time: float, name: str) -> None:
        """The engine popped an event older than its predecessor."""
        self.report.record(
            "engine.monotonic-time",
            f"event {name!r} at t={time:.9f} popped after t={last_time:.9f}",
            time=time, severity=SEV_CRITICAL,
            callback=name, previous=last_time,
        )

    # ------------------------------------------------------------------
    # vswitch hooks (ECN echo causality)
    # ------------------------------------------------------------------
    def on_ce_observed(self, observer_ip: str, remote_src: str, port: int) -> None:
        """A CE-marked packet from ``remote_src`` arrived at ``observer_ip``
        over source port ``port`` — a future echo for this key is legal."""
        self._ce_marks.add((observer_ip, remote_src, port))

    def on_echo_consumed(self, host_ip: str, remote: str, port: int) -> None:
        """Host ``host_ip`` consumed an STT ECN echo from ``remote`` for
        source port ``port``; ``remote`` must have observed a CE mark on
        traffic we sent over that port."""
        self._echo_checks += 1
        if (remote, host_ip, port) not in self._ce_marks:
            self.report.record(
                "ecn.causality",
                f"STT echo for port {port} consumed at {host_ip} without a "
                f"prior CE mark observed at {remote}",
                time=self.sim.now if self.sim is not None else 0.0,
                host=host_ip, remote=remote, port=port,
            )

    # ------------------------------------------------------------------
    # Checkpoints and finalization (called from the harness)
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Structural invariant sweep; runs between simulation chunks."""
        invariants.run_all(
            self.report, self.sim, self.net, self.hosts, self.sim.now
        )
        self._mirror_findings()

    def finalize(self, drained: bool = False) -> AuditReport:
        """Final sweep + conservation ledger; stamps the digest.

        Safe to call once; subsequent calls return the finished report.
        """
        if self._finalized:
            return self.report
        self._finalized = True
        now = self.sim.now if self.sim is not None else 0.0
        invariants.run_all(self.report, self.sim, self.net, self.hosts, now)
        ledger.check_conservation(
            self.report, self.net, self.hosts, now,
            drained=drained, chaos=self.chaos,
            workload=self.workload, collector=self.collector,
        )
        self.report.note_checked("engine.monotonic-time", self.digest.count)
        self.report.note_checked("ecn.causality", self._echo_checks)
        self.report.digest = self.digest.render()
        self._mirror_findings()
        self.detach()
        return self.report

    # ------------------------------------------------------------------
    # Telemetry mirroring (report mode on long runs)
    # ------------------------------------------------------------------
    def _mirror_findings(self) -> None:
        if self.telemetry is None or not self.telemetry.enabled:
            return
        findings = self.report.findings
        while self._emitted < len(findings):
            finding = findings[self._emitted]
            self._emitted += 1
            self.telemetry.events.emit(
                "audit.violation", finding.time,
                invariant=finding.invariant, severity=finding.severity,
                message=finding.message,
            )

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """One-paragraph human verdict (delegates to the report)."""
        return self.report.summary()

    def to_dict(self) -> Dict[str, Any]:
        """The serialized report (delegates to the report)."""
        return self.report.to_dict()

    def manifest_fields(self) -> Dict[str, Any]:
        """The block run_experiment stamps into the telemetry manifest."""
        return {
            "mode": self.mode,
            "digest": self.report.digest,
            "ok": self.report.ok,
            "violations": self.report.violations,
        }
