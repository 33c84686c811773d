"""Declarative fault injection with recovery metrics (``repro.chaos``).

The pieces:

* :mod:`repro.chaos.plan` — :class:`FaultPlan` / :class:`FaultEvent`
  (typed, JSON-serializable fault schedules), the named :data:`PRESETS`
  and the seeded :func:`random_plan` storm generator;
* :mod:`repro.chaos.engine` — :class:`ChaosEngine`, which validates a plan
  against a built network, applies/schedules its events and records
  injection markers + ``chaos.inject`` telemetry;
* :mod:`repro.chaos.metrics` — time-to-recover, fault-window FCT inflation
  and fault-attributed packet loss, computable both from a live
  :class:`~repro.harness.experiment.ExperimentResult` and offline from a
  telemetry JSONL artifact.

Entry points: ``ExperimentConfig(chaos=FaultPlan(...))``, the CLI's
``--chaos plan.json`` / ``--chaos-preset <name>`` flags, and the
``repro chaos`` subcommand.
"""

from repro import lazy_exports

_EXPORTS = {
    "ACTIONS": "plan",
    "CONTROL_ACTIONS": "plan",
    "LINK_ACTIONS": "plan",
    "PRESETS": "plan",
    "ChaosEngine": "engine",
    "ControlPlaneReport": "metrics",
    "ControlPlaneState": "engine",
    "FaultEvent": "plan",
    "FaultPlan": "plan",
    "FlowSample": "metrics",
    "HealthReport": "metrics",
    "RecoveryReport": "metrics",
    "compute_recovery": "metrics",
    "controlplane_from_records": "metrics",
    "controlplane_from_result": "metrics",
    "degraded": "plan",
    "echo_storm": "plan",
    "fault_windows": "plan",
    "flap": "plan",
    "format_controlplane_report": "metrics",
    "format_health_report": "metrics",
    "format_report": "metrics",
    "health_from_records": "metrics",
    "health_from_result": "metrics",
    "iter_presets": "plan",
    "multi_failure_plan": "plan",
    "preset": "plan",
    "random_plan": "plan",
    "recovery_from_records": "metrics",
    "recovery_from_result": "metrics",
    "restart_plan": "plan",
    "single_cable": "plan",
    "split_brain": "plan",
    "windows_from_markers": "engine",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
