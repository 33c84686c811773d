"""Robustness metrics over marked fault windows.

Given the flows a run completed and the fault windows its plan carved out,
this module answers the questions the dynamic-asymmetry regime is about:

* **time-to-recover** — after the last fault clears, how long until
  goodput is back within 10% of its pre-fault level (FlowDyn's
  re-convergence metric);
* **FCT inflation** — mean completion time of flows that lived through a
  fault window, relative to the pre-fault baseline;
* **lost packets** — packets flushed out of queues at ``link_down`` plus
  packets blackholed while a cable was held down, i.e. the losses whose
  retransmissions are attributable to the faults.

Each report is computed once, from one input: the ``(records, counters)``
shape of a ``--telemetry-out`` JSONL artifact (``chaos.inject`` markers
define the windows, ``flow.completed`` events the goodput/FCT series, the
scraped per-host counters the probe and echo totals).  A live run reaches
the same functions through :func:`run_records`, which projects an
:class:`~repro.harness.experiment.ExperimentResult` onto that shape, so
``standard_metrics``, ``repro run --chaos-preset flap`` and ``repro chaos
report run.jsonl`` print the same numbers for the same run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.telemetry.core import host_counters
from repro.telemetry.registry import format_key, instrument_key, totals_by_name

_NAN = float("nan")

#: "recovered" means goodput back within this fraction of pre-fault
RECOVERY_THRESHOLD = 0.9


@dataclass(frozen=True)
class FlowSample:
    """One completed flow: what recovery metrics need to know about it."""

    size: int
    arrival: float
    completion: float

    @property
    def fct(self) -> float:
        return self.completion - self.arrival


@dataclass
class RecoveryReport:
    """The robustness metrics of one faulted run.

    NaN marks a quantity that was not measurable: no pre-fault traffic
    (faults from ``t=0`` have no baseline), no flows in the fault windows,
    or goodput that never got back over the threshold before the run ended
    (``time_to_recover_s``, specifically, is NaN for "never recovered" and
    ``0.0`` for "never dipped").
    """

    #: merged degraded-capacity intervals, clamped to the run
    windows: List[Tuple[float, float]]
    #: goodput over the pre-fault traffic interval (bits/s)
    pre_fault_goodput_bps: float
    #: seconds after the last fault cleared until goodput recovered
    time_to_recover_s: float
    #: mean FCT of fault-window flows / mean pre-fault FCT
    fct_inflation: float
    #: packets flushed out of egress queues by ``link_down`` injections
    flushed_packets: int
    #: packets dropped on cables while a plan held them down
    blackholed_packets: int
    #: flows counted into the fault-window / baseline FCT means
    fault_flows: int = 0
    baseline_flows: int = 0

    @property
    def fault_window_s(self) -> float:
        """Total degraded-capacity time."""
        return sum(end - start for start, end in self.windows)

    @property
    def lost_packets(self) -> int:
        """Flushed + blackholed: the retransmissions the faults forced."""
        return self.flushed_packets + self.blackholed_packets

    def to_dict(self) -> Dict[str, object]:
        """The report as one JSON-able dict (windows as [start, end] pairs)."""
        return {
            "windows": [list(w) for w in self.windows],
            "fault_window_s": self.fault_window_s,
            "pre_fault_goodput_bps": self.pre_fault_goodput_bps,
            "time_to_recover_s": self.time_to_recover_s,
            "fct_inflation": self.fct_inflation,
            "flushed_packets": self.flushed_packets,
            "blackholed_packets": self.blackholed_packets,
            "lost_packets": self.lost_packets,
            "fault_flows": self.fault_flows,
            "baseline_flows": self.baseline_flows,
        }


def _goodput_bps(flows: Sequence[FlowSample], start: float, end: float) -> float:
    """Bits per second completed inside [start, end)."""
    if end <= start:
        return 0.0
    done = sum(f.size for f in flows if start <= f.completion < end)
    return done * 8.0 / (end - start)


def compute_recovery(
    flows: Sequence[FlowSample],
    windows: Sequence[Tuple[float, float]],
    end_time: float,
    flushed_packets: int = 0,
    blackholed_packets: int = 0,
    threshold: float = RECOVERY_THRESHOLD,
    bin_width: Optional[float] = None,
) -> RecoveryReport:
    """The shared metric core; see the module docstring for definitions.

    ``bin_width`` is the goodput-averaging granularity for the recovery
    scan (default: half the faulted span, floored at 1 ms).  Time-to-
    recover is quantized to it: the reported value is the end of the first
    post-fault bin whose goodput clears ``threshold`` x pre-fault.
    """
    clamped = [
        (start, min(end, end_time))
        for start, end in windows
        if start < end_time
    ]
    if not clamped:
        return RecoveryReport([], _NAN, _NAN, _NAN,
                              flushed_packets, blackholed_packets)
    fault_start = clamped[0][0]
    fault_end = clamped[-1][1]

    # Pre-fault baseline: the interval from first traffic to the first fault.
    baseline_start = min((f.arrival for f in flows), default=0.0)
    baseline = [f for f in flows if f.completion < fault_start]
    pre_goodput = (
        _goodput_bps(flows, baseline_start, fault_start)
        if fault_start > baseline_start else _NAN
    )

    # FCT inflation: flows whose lifetime overlaps any fault window.
    faulted = [
        f for f in flows
        if any(f.arrival < end and f.completion > start for start, end in clamped)
    ]
    if baseline and faulted:
        base_mean = sum(f.fct for f in baseline) / len(baseline)
        fault_mean = sum(f.fct for f in faulted) / len(faulted)
        inflation = fault_mean / base_mean if base_mean > 0 else _NAN
    else:
        inflation = _NAN

    ttr = _time_to_recover(
        flows, clamped, pre_goodput, fault_end, end_time, threshold, bin_width
    )
    return RecoveryReport(
        windows=clamped,
        pre_fault_goodput_bps=pre_goodput,
        time_to_recover_s=ttr,
        fct_inflation=inflation,
        flushed_packets=flushed_packets,
        blackholed_packets=blackholed_packets,
        fault_flows=len(faulted),
        baseline_flows=len(baseline),
    )


def _time_to_recover(
    flows: Sequence[FlowSample],
    windows: Sequence[Tuple[float, float]],
    pre_goodput: float,
    fault_end: float,
    end_time: float,
    threshold: float,
    bin_width: Optional[float],
) -> float:
    if not (pre_goodput > 0):  # also False for NaN: no baseline, no answer
        return _NAN
    floor = threshold * pre_goodput
    if bin_width is None:
        span = fault_end - windows[0][0]
        bin_width = max(span / 2.0, 1e-3)
    # An open-ended final window (the fault persists to the end of the run)
    # can never have a *post-fault* recovery; what self-healing buys there
    # is re-convergence *around* the fault, so the scan starts at the last
    # window's onset instead of its end.
    scan_from = windows[-1][0] if fault_end >= end_time else fault_end
    if scan_from == fault_end:
        # Closed windows: never dipping below the threshold — during faults
        # or after — means the scheme rode the faults out: recovery time 0.
        dipped = any(
            _goodput_bps(flows, start, end) < floor for start, end in windows
        )
        if not dipped:
            return 0.0
    t = scan_from
    while t + bin_width <= end_time:
        if _goodput_bps(flows, t, t + bin_width) >= floor:
            return t + bin_width - scan_from
        t += bin_width
    return _NAN  # never got back over the line before the run ended


# ----------------------------------------------------------------------
# The one input: records + counters (an artifact, or a live run projected)
# ----------------------------------------------------------------------
def run_records(result) -> Tuple[List[Dict[str, object]], Dict[str, float]]:
    """A live :class:`~repro.harness.experiment.ExperimentResult` projected
    onto the ``(records, counters)`` shape of its ``--telemetry-out``
    artifact, as far as the three reports read it.

    Records: the chaos engine's markers as ``chaos.inject`` /
    ``chaos.settle`` / ``chaos.reconverge`` events, the health monitors'
    markers as ``health.quarantine`` / ``health.restore`` events and their
    suspect declarations as one ``health.suspect`` event each, completed
    jobs as ``flow.completed`` (only when a plan ran, as the harness emits
    them) and one manifest carrying ``sim_duration`` and the fault plan.
    Counters: every per-host counter, keyed as the registry renders them.
    """
    config = result.config
    records: List[Dict[str, object]] = [{
        "kind": "manifest",
        "sim_duration": result.sim_duration,
        "config": {
            "asymmetric": config.asymmetric,
            "chaos": config.chaos.to_dict() if config.chaos else None,
        },
    }]
    engine = result.chaos
    if engine is not None:
        for marker in engine.markers:
            kind = "settle" if marker["action"] == "settle" else "inject"
            records.append({"type": f"chaos.{kind}", **marker})
            if "reconverged_at" in marker:
                records.append({
                    "type": "chaos.reconverge",
                    "time": marker["reconverged_at"],
                    "reconverge_s": (float(marker["reconverged_at"])
                                     - float(marker["time"])),
                    "divergence": marker["divergence"],
                })
        records.extend(
            {"type": "flow.completed", "time": job.completion,
             "size": job.size, "arrival": job.arrival}
            for job in result.collector.jobs if job.completion is not None
        )
    for host in result.hosts.values():
        monitor = host.health
        if monitor is not None:
            records.extend(
                {"type": f"health.{marker.action}", "time": marker.time,
                 "probation_s": marker.probation_s}
                for marker in monitor.markers
            )
            records.extend(
                {"type": "health.suspect", "host": host.name}
                for _ in range(monitor.suspect_events)
            )
    counters = {
        format_key(instrument_key(name, labels)): value
        for name, labels, value in host_counters(result.hosts)
    }
    return records, counters


def _fault_markers(records: Sequence[Dict]) -> List[Dict]:
    return [r for r in records if r.get("type") == "chaos.inject"]


def _ran_a_plan(records: Sequence[Dict]) -> bool:
    """Whether some run's manifest names a non-empty fault plan (its
    engine ran even if no injection fell inside the run)."""
    for record in records:
        if record.get("kind") == "manifest":
            config = record.get("config") or {}
            plan = config.get("chaos") or {}
            if config.get("asymmetric") or plan.get("events"):
                return True
    return False


def recovery_from_records(
    records: Sequence[Dict], end_time: Optional[float] = None, **kwargs
) -> Optional[RecoveryReport]:
    """A run's recovery metrics from its records.

    ``records`` are the dicts of :func:`repro.telemetry.events.read_jsonl`
    or of :func:`run_records` (any record kind; non-events are ignored
    except manifests, whose ``sim_duration`` supplies ``end_time`` when not
    given).  Returns None when no fault plan ran: no ``chaos.inject``
    marker and no manifest naming a plan.
    """
    markers = _fault_markers(records)
    if not markers and not _ran_a_plan(records):
        return None
    flows = [
        FlowSample(
            size=int(r.get("size", 0)),
            arrival=float(r.get("arrival", 0.0)),
            completion=float(r.get("time", 0.0)),
        )
        for r in records
        if r.get("type") == "flow.completed"
    ]
    if end_time is None:
        durations = [
            float(r["sim_duration"]) for r in records
            if r.get("kind") == "manifest" and r.get("sim_duration") is not None
        ]
        times = [float(m.get("time", 0.0)) for m in markers]
        times.extend(f.completion for f in flows)
        end_time = max(durations) if durations else (max(times) if times else 0.0)
    windows: List[Tuple[float, float]] = []
    if markers:
        from repro.chaos.engine import windows_from_markers

        windows = windows_from_markers(markers, end=end_time)
    flushed = sum(int(m.get("flushed", 0)) for m in markers)
    blackholed = sum(
        int(r.get("blackholed", 0)) for r in records
        if r.get("type") in ("chaos.inject", "chaos.settle")
    )
    return compute_recovery(
        flows,
        windows,
        end_time=end_time,
        flushed_packets=flushed,
        blackholed_packets=blackholed,
        **kwargs,
    )


# ----------------------------------------------------------------------
# Health metrics: what the self-healing monitor did during the run
# ----------------------------------------------------------------------
@dataclass
class HealthReport:
    """What the path health monitors did in one faulted (or healthy) run.

    NaN marks a quantity with no samples: ``detection_latency_s`` when
    nothing was quarantined (or no fault marker precedes the quarantine),
    ``probation_s`` when nothing was restored.
    """

    #: quarantine actions across all monitors
    paths_quarantined: int
    #: paths promoted back to full service
    paths_restored: int
    #: suspect declarations (losses, RTT spikes, CE anomalies)
    suspect_events: int
    probes_sent: int
    probes_lost: int
    #: first quarantine minus the most recent preceding fault injection
    detection_latency_s: float
    #: mean time restored paths spent in graduated probation
    probation_s: float

    def to_dict(self) -> Dict[str, object]:
        """The report as one JSON-able dict."""
        return {
            "paths_quarantined": self.paths_quarantined,
            "paths_restored": self.paths_restored,
            "suspect_events": self.suspect_events,
            "probes_sent": self.probes_sent,
            "probes_lost": self.probes_lost,
            "detection_latency_s": self.detection_latency_s,
            "probation_s": self.probation_s,
        }


def _detection_latency(
    quarantine_times: Sequence[float], fault_times: Sequence[float]
) -> float:
    """First quarantine relative to the closest fault injection before it."""
    if not quarantine_times:
        return _NAN
    first = min(quarantine_times)
    preceding = [t for t in fault_times if t <= first]
    if not preceding:
        return _NAN
    return first - max(preceding)


def health_from_records(
    records: Sequence[Dict],
    counters: Optional[Dict[str, float]] = None,
) -> Optional[HealthReport]:
    """A run's health metrics from its records and counters.

    ``counters`` is the artifact's scraped counter snapshot (the
    ``counters`` dict of :func:`repro.telemetry.load_jsonl`, or of
    :func:`run_records`); the per-host probe totals live there, while
    quarantines, restores and suspect declarations are counted from the
    ``health.*`` events.  Returns None when no monitor ran (no
    ``health.probes_sent`` counter).
    """
    totals = totals_by_name(counters or {})
    if "health.probes_sent" not in totals:
        return None
    quarantines = [
        float(r.get("time", 0.0)) for r in records
        if r.get("type") == "health.quarantine"
    ]
    probations = [
        float(r.get("probation_s", 0.0)) for r in records
        if r.get("type") == "health.restore"
    ]
    fault_times = [
        float(m.get("time", 0.0)) for m in _fault_markers(records)
        if m.get("action") == "link_down"
        or (m.get("action") == "degrade" and float(m.get("factor", 1.0)) < 1.0)
    ]
    return HealthReport(
        paths_quarantined=len(quarantines),
        paths_restored=len(probations),
        suspect_events=sum(
            1 for r in records if r.get("type") == "health.suspect"),
        probes_sent=int(totals["health.probes_sent"]),
        probes_lost=int(totals.get("health.probes_lost", 0)),
        detection_latency_s=_detection_latency(quarantines, fault_times),
        probation_s=(
            sum(probations) / len(probations) if probations else _NAN
        ),
    )


def format_health_report(report: HealthReport) -> str:
    """The health block ``repro run --health`` / ``repro chaos report``
    print."""
    def fmt_ms(value: float) -> str:
        return "n/a" if math.isnan(value) else f"{value * 1000:.3f} ms"

    lost = (
        f"{report.probes_lost}/{report.probes_sent}"
        if report.probes_sent else "n/a"
    )
    return "\n".join([
        f"paths quarantined : {report.paths_quarantined} "
        f"({report.suspect_events} suspect events)",
        f"paths restored    : {report.paths_restored} "
        f"(mean probation {fmt_ms(report.probation_s)})",
        f"detection latency : {fmt_ms(report.detection_latency_s)}",
        f"probes lost/sent  : {lost}",
    ])


# ----------------------------------------------------------------------
# Control-plane metrics: what echo faults and restarts did to Clove
# ----------------------------------------------------------------------
@dataclass
class ControlPlaneReport:
    """What control-plane chaos did to the feedback loop in one run.

    Fault-side counts (dropped/delayed/duplicated/corrupted/probes) come
    from the injectors; defense-side counts (corrupt-dropped,
    stale-rejected, stale-applied) from the epoch guard and bounds check.
    ``stale_applied`` must be 0 whenever the guard is on — it exists to
    measure the damage with the guard *off*.  NaN marks a quantity with
    no samples (no echoes carried, no restart ever re-converged).
    """

    #: echoes that reached a vswitch with the policy listening
    echoes_carried: int
    #: echoes accepted and applied to the weight table
    echoes_received: int
    echoes_dropped: int
    echoes_delayed: int
    echoes_delivered_late: int
    echoes_duplicated: int
    #: injected corruptions vs what the bounds check actually caught
    echoes_corrupted: int
    echoes_corrupt_dropped: int
    #: epoch-guard rejections at the vswitch
    echoes_stale_rejected: int
    #: stale echoes counted anywhere (policy unknown-port + epoch guard)
    stale_echoes: int
    #: epoch-mismatched echoes applied anyway (only with the guard off)
    stale_applied: int
    epoch_bumps: int
    probes_dropped: int
    #: vswitch restarts injected / of those, re-converged before run end
    restarts: int
    reconverged: int
    #: mean seconds from restart to weights back within 10% TV of oracle
    reconverge_s: float
    #: mean total-variation distance to the oracle at re-convergence
    divergence: float

    @property
    def echo_delivery_ratio(self) -> float:
        """Accepted / carried; NaN when no echoes were carried."""
        if self.echoes_carried <= 0:
            return _NAN
        return self.echoes_received / self.echoes_carried

    def to_dict(self) -> Dict[str, object]:
        """The report as one JSON-able dict."""
        return {
            "echoes_carried": self.echoes_carried,
            "echoes_received": self.echoes_received,
            "echo_delivery_ratio": self.echo_delivery_ratio,
            "echoes_dropped": self.echoes_dropped,
            "echoes_delayed": self.echoes_delayed,
            "echoes_delivered_late": self.echoes_delivered_late,
            "echoes_duplicated": self.echoes_duplicated,
            "echoes_corrupted": self.echoes_corrupted,
            "echoes_corrupt_dropped": self.echoes_corrupt_dropped,
            "echoes_stale_rejected": self.echoes_stale_rejected,
            "stale_echoes": self.stale_echoes,
            "stale_applied": self.stale_applied,
            "epoch_bumps": self.epoch_bumps,
            "probes_dropped": self.probes_dropped,
            "restarts": self.restarts,
            "reconverged": self.reconverged,
            "reconverge_s": self.reconverge_s,
            "divergence": self.divergence,
        }


def controlplane_from_records(
    records: Sequence[Dict],
    counters: Optional[Dict[str, float]] = None,
) -> Optional[ControlPlaneReport]:
    """A run's control-plane metrics from its records and counters.

    Counter totals come from the scraped counter snapshot (``counters`` of
    :func:`repro.telemetry.load_jsonl` or of :func:`run_records`); restart
    and re-convergence facts from the ``chaos.inject`` /
    ``chaos.reconverge`` events.  Returns None unless control-plane
    faults were armed (a ``chaos.echoes_dropped`` counter exists) or a
    defense counter fired: stale echoes occur without chaos too, e.g.
    when discovery respreads race in-flight echoes.
    """
    totals = totals_by_name(counters or {})

    def total(name: str) -> int:
        return int(totals.get(name, 0))

    stale = total("weights.stale_echoes")
    applied = total("weights.stale_applied")
    corrupt_dropped = total("vswitch.echoes_corrupt_dropped")
    stale_rejected = total("vswitch.echoes_stale_rejected")
    if "chaos.echoes_dropped" not in totals and not (
            stale or applied or corrupt_dropped or stale_rejected):
        return None
    reconverges = [r for r in records if r.get("type") == "chaos.reconverge"]
    reconverge_times = [float(r.get("reconverge_s", 0.0)) for r in reconverges]
    divergences = [float(r.get("divergence", 0.0)) for r in reconverges]
    return ControlPlaneReport(
        echoes_carried=total("vswitch.echoes_carried"),
        echoes_received=total("vswitch.echoes_received"),
        echoes_dropped=total("chaos.echoes_dropped"),
        echoes_delayed=total("chaos.echoes_delayed"),
        echoes_delivered_late=total("chaos.echoes_delivered_late"),
        echoes_duplicated=total("chaos.echoes_duplicated"),
        echoes_corrupted=total("chaos.echoes_corrupted"),
        echoes_corrupt_dropped=corrupt_dropped,
        echoes_stale_rejected=stale_rejected,
        stale_echoes=stale,
        stale_applied=applied,
        epoch_bumps=total("weights.epoch_bumps"),
        probes_dropped=total("chaos.probes_dropped"),
        restarts=sum(1 for m in _fault_markers(records)
                     if m.get("action") == "vswitch_restart"),
        reconverged=len(reconverge_times),
        reconverge_s=(
            sum(reconverge_times) / len(reconverge_times)
            if reconverge_times else _NAN
        ),
        divergence=(
            sum(divergences) / len(divergences) if divergences else _NAN
        ),
    )


def format_controlplane_report(report: ControlPlaneReport) -> str:
    """The control-plane block ``repro run`` / ``repro chaos report``
    print."""
    def fmt_ms(value: float) -> str:
        return "n/a" if math.isnan(value) else f"{value * 1000:.3f} ms"

    ratio = (
        "n/a" if math.isnan(report.echo_delivery_ratio)
        else f"{report.echo_delivery_ratio * 100:.1f}%"
    )
    lines = [
        f"echo delivery     : {ratio} "
        f"({report.echoes_received}/{report.echoes_carried} accepted; "
        f"{report.echoes_dropped} dropped, {report.echoes_delayed} delayed, "
        f"{report.echoes_duplicated} duplicated, "
        f"{report.echoes_corrupted} corrupted)",
        f"epoch guard       : {report.echoes_stale_rejected} stale rejected, "
        f"{report.echoes_corrupt_dropped} corrupt dropped, "
        f"{report.stale_applied} stale applied "
        f"({report.epoch_bumps} epoch bumps)",
        f"probes dropped    : {report.probes_dropped}",
        f"vswitch restarts  : {report.restarts} "
        f"({report.reconverged} re-converged, "
        f"mean {fmt_ms(report.reconverge_s)})",
    ]
    return "\n".join(lines)


def format_report(report: RecoveryReport) -> str:
    """The report as the text block ``repro run`` / ``repro chaos report``
    print."""
    def fmt_ttr(value: float) -> str:
        if math.isnan(value):
            return "never recovered (or no pre-fault baseline)"
        if value == 0.0:
            return "0 (goodput never dipped below threshold)"
        return f"{value * 1000:.3f} ms"

    lines = [
        f"fault windows     : {len(report.windows)} "
        f"({report.fault_window_s * 1000:.3f} ms degraded)",
        f"pre-fault goodput : "
        + (f"{report.pre_fault_goodput_bps / 1e9:.3f} Gbps"
           if not math.isnan(report.pre_fault_goodput_bps) else "n/a"),
        f"time-to-recover   : {fmt_ttr(report.time_to_recover_s)}",
        f"fault FCT inflation: "
        + (f"{report.fct_inflation:.2f}x "
           f"({report.fault_flows} faulted vs {report.baseline_flows} baseline flows)"
           if not math.isnan(report.fct_inflation) else "n/a"),
        f"lost packets      : {report.lost_packets} "
        f"({report.flushed_packets} flushed, "
        f"{report.blackholed_packets} blackholed)",
    ]
    return "\n".join(lines)
