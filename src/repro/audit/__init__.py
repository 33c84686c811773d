"""repro.audit — runtime invariant checker, conservation ledger, and
determinism auditor for the simulator.

Opt-in (``--audit strict|report`` on the CLI, ``ExperimentConfig.audit``
in code): attach an :class:`Auditor` to an assembled run and it verifies
packet/byte conservation, per-layer structural invariants (queue
occupancy, weight-table sums, TCP sequence/reassembly sanity, ECN echo
causality, event-heap monotonicity) and folds every processed event into
a streaming digest that proves serial-vs-parallel and run-vs-rerun
bit-identity.  :func:`audit_artifact` replays an exported telemetry
JSONL(.gz) artifact through the same checks offline.
"""

from repro import lazy_exports

_EXPORTS = {
    "Auditor": "auditor",
    "AuditError": "report",
    "AuditReport": "report",
    "MODE_REPORT": "report",
    "MODE_STRICT": "report",
    "StreamDigest": "digest",
    "audit_artifact": "offline",
    "diff_digests": "digest",
    "digest_events": "digest",
    "parse_digest": "digest",
    "render_digest": "digest",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
