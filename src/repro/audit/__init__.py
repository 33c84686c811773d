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

from repro.audit.auditor import Auditor
from repro.audit.digest import (
    StreamDigest,
    diff_digests,
    digest_events,
    parse_digest,
    render_digest,
)
from repro.audit.ledger import LedgerSnapshot, check_conservation, gather
from repro.audit.offline import audit_artifact
from repro.audit.report import (
    MODE_REPORT,
    MODE_STRICT,
    MODES,
    SEV_CRITICAL,
    SEV_ERROR,
    SEV_WARNING,
    AuditError,
    AuditFinding,
    AuditReport,
)

__all__ = [
    "Auditor",
    "AuditError",
    "AuditFinding",
    "AuditReport",
    "LedgerSnapshot",
    "MODE_REPORT",
    "MODE_STRICT",
    "MODES",
    "SEV_CRITICAL",
    "SEV_ERROR",
    "SEV_WARNING",
    "StreamDigest",
    "audit_artifact",
    "check_conservation",
    "diff_digests",
    "digest_events",
    "gather",
    "parse_digest",
    "render_digest",
]
