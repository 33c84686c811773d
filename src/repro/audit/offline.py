"""Offline audit: replay a telemetry JSONL(.gz) artifact through the
conservation and structural checks.

The in-process auditor sees live objects; offline mode sees only what the
artifact exported — the scrape-style counters (``name{label=value}`` keys
from :func:`repro.telemetry.registry.format_key`), the final queue-depth
gauges, the event stream, and the run manifests.  The same invariants are
evaluated over that projection:

* the packet balance — per-queue ``enqueued == dequeued + depth``
  identities, per-link transit signs, global conservation — is the
  ledger's own :func:`~repro.audit.ledger.check_balance`, run over a
  snapshot :func:`~repro.audit.ledger.from_counters` builds from the
  exported counters and gauges; an artifact without them is an error
  (``ValueError``), not a pass;
* weight-table sums over every ``clove.weight_update`` event (the events
  carry weights rounded to 6 decimals, so the tolerance is looser than the
  in-process 1e-6);
* event-timestamp monotonicity — only when the artifact holds exactly one
  run manifest, since merged ``-j N`` artifacts legally interleave runs;
* the engine digest recorded in the manifest (when the run was audited
  in-process) is carried over so ``repro audit diff`` can compare it.

A clean in-process run exports counters that balance; offline replay of
its artifact must reach the same verdict.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

from repro.audit.ledger import check_balance, from_counters
from repro.audit.report import (
    MODE_REPORT,
    SEV_CRITICAL,
    AuditReport,
)
from repro.telemetry.core import load_jsonl

#: weight sums in events are rounded to 6 decimals per path; allow the
#: rounding error to accumulate over a wide fan-out
OFFLINE_WEIGHT_TOLERANCE = 1e-4


def audit_artifact(path: str, mode: str = MODE_REPORT) -> AuditReport:
    """Run the offline checks over one exported artifact.

    Raises ``OSError``/``ValueError`` for unreadable or record-free files
    (the CLI maps those to exit code 2); invariant violations land in the
    returned report (or raise :class:`AuditError` in strict mode).
    """
    dump = load_jsonl(path)
    report = AuditReport(mode=mode)
    report.source = "offline"

    counters = dump["counters"]
    manifests = dump["manifests"]

    check_balance(report, from_counters(counters, dump["gauges"]), now=0.0)
    _check_weight_events(report, dump["events"])
    if len([m for m in manifests if "config" in m or "seed" in m]) <= 1:
        _check_event_monotonicity(report, dump["events"])

    # Carry the in-process engine digest (if the run was audited) so the
    # offline report diffs cleanly against the live one.
    for manifest in manifests:
        recorded = manifest.get("audit")
        if isinstance(recorded, dict) and recorded.get("digest"):
            report.digest = recorded["digest"]
            break
    return report


def _check_weight_events(
    report: AuditReport, events: Iterable[Dict[str, Any]]
) -> None:
    checked = 0
    for event in events:
        if event.get("type") != "clove.weight_update":
            continue
        weights = event.get("weights")
        if not isinstance(weights, dict) or not weights:
            continue
        checked += 1
        values = [float(v) for v in weights.values()]
        total = sum(values)
        if abs(total - 1.0) > OFFLINE_WEIGHT_TOLERANCE or min(values) < 0:
            report.record(
                "weights.sum",
                f"weight update on host {event.get('host', '?')} sums to "
                f"{total:.6f} (weights {weights})",
                time=float(event.get("time", 0.0)),
                host=event.get("host", "?"), total=total,
            )
    report.note_checked("weights.sum", checked)


#: event types the harness emits *after* the run with historical
#: timestamps (per-flow completion summaries for offline chaos metrics);
#: they legally appear out of emission order in the artifact
RETROSPECTIVE_EVENTS = frozenset({"flow.completed"})


def _check_event_monotonicity(
    report: AuditReport, events: Iterable[Dict[str, Any]]
) -> None:
    last: Optional[float] = None
    checked = 0
    for event in events:
        if event.get("type") in RETROSPECTIVE_EVENTS:
            continue
        time = float(event.get("time", 0.0))
        checked += 1
        if last is not None and time < last:
            report.record(
                "engine.monotonic-time",
                f"artifact event {event.get('type', '?')!r} at "
                f"t={time:.9f} recorded after t={last:.9f}",
                time=time, severity=SEV_CRITICAL,
                event=event.get("type", "?"), previous=last,
            )
        last = time
    report.note_checked("engine.monotonic-time", checked)
