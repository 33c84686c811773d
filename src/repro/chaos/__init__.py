"""Declarative fault injection with recovery metrics (``repro.chaos``).

The pieces:

* :mod:`repro.chaos.plan` — :class:`FaultPlan` / :class:`FaultEvent`
  (typed, JSON-serializable fault schedules), the named :data:`PRESETS`
  and the seeded :func:`random_plan` storm generator;
* :mod:`repro.chaos.engine` — :class:`ChaosEngine`, which validates a plan
  against a built network, applies/schedules its events and records
  injection markers + ``chaos.inject`` telemetry;
* :mod:`repro.chaos.metrics` — time-to-recover, fault-window FCT inflation
  and fault-attributed packet loss, plus the health and control-plane
  reports, each computed once from a telemetry JSONL artifact's records
  (a live run gets there through :func:`run_records`).

Entry points: ``ExperimentConfig(chaos=FaultPlan(...))``, the CLI's
``--chaos plan.json`` / ``--chaos-preset <name>`` flags, and the
``repro chaos`` subcommand.
"""

from repro import lazy_exports

_EXPORTS = {
    "CONTROL_ACTIONS": "plan",
    "PRESETS": "plan",
    "ChaosEngine": "engine",
    "FaultEvent": "plan",
    "FaultPlan": "plan",
    "FlowSample": "metrics",
    "compute_recovery": "metrics",
    "controlplane_from_records": "metrics",
    "degraded": "plan",
    "echo_storm": "plan",
    "fault_windows": "plan",
    "flap": "plan",
    "format_health_report": "metrics",
    "format_report": "metrics",
    "health_from_records": "metrics",
    "multi_failure_plan": "plan",
    "preset": "plan",
    "random_plan": "plan",
    "recovery_from_records": "metrics",
    "restart_plan": "plan",
    "run_records": "metrics",
    "single_cable": "plan",
    "split_brain": "plan",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
