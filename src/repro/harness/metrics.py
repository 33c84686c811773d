"""The standard scalar-metric payload a runner job computes.

Parallel execution (:mod:`repro.runner`) cannot ship whole
:class:`~repro.harness.experiment.ExperimentResult` objects across the
process boundary — they hold the simulator, the network and live host
state.  Instead every worker reduces its run to this fixed dictionary of
scalars, which is also what the on-disk result cache stores.  Every metric
any figure extracts (overall mean, tail percentiles, the Figure 5 mice /
elephant buckets) is computed up front, so a cached point can serve any
figure later without re-running.

Suite metrics and the figure rows of :mod:`repro.suite.figures` are keys
of this payload; add a key here — and bump
:data:`repro.runner.job.SCHEMA_VERSION` — when a new figure needs a scalar
the payload does not yet carry.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: Figure 5 "mice" bucket: flows below this size (paper-scale bytes; the
#: cutoff is multiplied by the run's ``flow_scale`` like the flows are).
MICE_CUTOFF_BYTES = 100 * 1000
#: Figure 5 "elephant" bucket: flows above this size (paper-scale bytes).
ELEPHANT_CUTOFF_BYTES = 10 * 1000 * 1000

#: every key :func:`standard_metrics` emits, in payload order
METRIC_KEYS: Tuple[str, ...] = (
    "avg_fct",
    "p50_fct",
    "p95_fct",
    "p99_fct",
    "max_fct",
    "mice_avg_fct",
    "elephant_avg_fct",
    "count",
    "completion_rate",
    "sim_duration",
    "wall_events",
    # robustness metrics of a faulted run (repro.chaos.metrics); all NaN
    # when the run carried no fault plan
    "chaos_time_to_recover",
    "chaos_fct_inflation",
    "chaos_fault_window_s",
    "chaos_flushed_packets",
    "chaos_lost_packets",
    # self-healing metrics (repro.chaos.metrics.health_from_result); all
    # NaN when no path health monitor ran
    "health_paths_quarantined",
    "health_paths_restored",
    "health_probes_sent",
    "health_probes_lost",
    "health_detection_latency_s",
    "health_probation_s",
    # control-plane chaos metrics (repro.chaos.metrics); all NaN when the
    # run saw no control-plane faults and no defense counter fired
    "controlplane_echo_delivery_ratio",
    "controlplane_stale_rejected",
    "controlplane_stale_applied",
    "controlplane_corrupt_dropped",
    "controlplane_probes_dropped",
    "controlplane_restarts",
    "controlplane_reconverge_s",
    # total invariant-violation occurrences (repro.audit); NaN when the run
    # was not audited, 0.0 on a clean audited run
    "audit_violations",
)

_NAN = float("nan")


def standard_metrics(result) -> Dict[str, float]:
    """Reduce an :class:`ExperimentResult` to the standard scalar payload.

    Empty buckets (no completed jobs, no mice, no elephants) yield NaN for
    their FCT entries, matching what the in-process extractors return.
    The ``chaos_*`` keys carry the recovery metrics of the run's fault
    plan (see :mod:`repro.chaos.metrics`) and are NaN on fault-free runs.
    """
    from repro.chaos.metrics import (
        controlplane_from_result,
        health_from_result,
        recovery_from_result,
    )

    collector = result.collector
    summary = collector.summary()
    scale = result.config.flow_scale
    mice = collector.summary(max_size=int(MICE_CUTOFF_BYTES * scale))
    elephants = collector.summary(min_size=int(ELEPHANT_CUTOFF_BYTES * scale))
    recovery = recovery_from_result(result)
    health = health_from_result(result)
    control = controlplane_from_result(result)
    return {
        "avg_fct": summary.mean if summary else _NAN,
        "p50_fct": summary.p50 if summary else _NAN,
        "p95_fct": summary.p95 if summary else _NAN,
        "p99_fct": summary.p99 if summary else _NAN,
        "max_fct": summary.max if summary else _NAN,
        "mice_avg_fct": mice.mean if mice else _NAN,
        "elephant_avg_fct": elephants.mean if elephants else _NAN,
        "count": float(summary.count if summary else 0),
        "completion_rate": collector.completion_rate,
        "sim_duration": result.sim_duration,
        "wall_events": float(result.wall_events),
        "chaos_time_to_recover": (
            recovery.time_to_recover_s if recovery else _NAN
        ),
        "chaos_fct_inflation": recovery.fct_inflation if recovery else _NAN,
        "chaos_fault_window_s": recovery.fault_window_s if recovery else _NAN,
        "chaos_flushed_packets": (
            float(recovery.flushed_packets) if recovery else _NAN
        ),
        "chaos_lost_packets": float(recovery.lost_packets) if recovery else _NAN,
        "health_paths_quarantined": (
            float(health.paths_quarantined) if health else _NAN
        ),
        "health_paths_restored": (
            float(health.paths_restored) if health else _NAN
        ),
        "health_probes_sent": float(health.probes_sent) if health else _NAN,
        "health_probes_lost": float(health.probes_lost) if health else _NAN,
        "health_detection_latency_s": (
            health.detection_latency_s if health else _NAN
        ),
        "health_probation_s": health.probation_s if health else _NAN,
        "controlplane_echo_delivery_ratio": (
            control.echo_delivery_ratio if control else _NAN
        ),
        "controlplane_stale_rejected": (
            float(control.echoes_stale_rejected) if control else _NAN
        ),
        "controlplane_stale_applied": (
            float(control.stale_applied) if control else _NAN
        ),
        "controlplane_corrupt_dropped": (
            float(control.echoes_corrupt_dropped) if control else _NAN
        ),
        "controlplane_probes_dropped": (
            float(control.probes_dropped) if control else _NAN
        ),
        "controlplane_restarts": float(control.restarts) if control else _NAN,
        "controlplane_reconverge_s": (
            control.reconverge_s if control else _NAN
        ),
        "audit_violations": (
            float(result.audit.violations) if result.audit is not None else _NAN
        ),
    }
