"""Job execution bodies: in-process and inside pool worker processes.

Each job kind imports its harness *inside* the function.  Everything that
only describes or stores work — :class:`~repro.runner.pool.RunnerConfig`,
the result cache, a warm ``repro suite check`` whose every point is a cache
hit — reaches this module through :mod:`repro.runner.pool` and must not
load the simulator for it; and a batch of one kind never loads the other
kind's harness.  The pooled path does not leave these imports to the
workers: :func:`repro.runner.pool.load_before_fork` imports what a batch
will run in the parent before it forks, so workers inherit the loaded
modules instead of importing them inside their first job.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from repro.runner.job import JobSpec


def execute_job(spec: JobSpec, telemetry=None) -> Dict[str, Any]:
    """Run one job in this process.

    Returns ``{"metrics": <scalar payload>, "wall_s": <float>}`` — the
    transportable reduction of the run (see
    :func:`repro.harness.metrics.standard_metrics`).  ``telemetry`` is the
    scope the run reports into, exactly as in direct ``run_experiment``
    calls.
    """
    start = time.perf_counter()
    audit: Optional[Dict[str, Any]] = None
    if spec.kind == "experiment":
        from repro.harness.experiment import run_experiment
        from repro.harness.metrics import standard_metrics

        if spec.config is None:
            raise ValueError("experiment JobSpec needs a config")
        result = run_experiment(spec.config, telemetry=telemetry)
        metrics = standard_metrics(result)
        if result.audit is not None:
            audit = result.audit.to_dict()
    elif spec.kind == "incast":
        from repro.harness.incast import run_incast

        goodput = run_incast(telemetry=telemetry, **dict(spec.params))
        metrics = {"goodput_bps": goodput}
    else:
        raise ValueError(f"unknown job kind {spec.kind!r}")
    payload: Dict[str, Any] = {
        "metrics": metrics, "wall_s": time.perf_counter() - start,
    }
    if audit is not None:
        payload["audit"] = audit
    return payload


def pool_worker(
    spec: JobSpec, want_telemetry: bool, profile: bool, trace: bool = True
) -> Dict[str, Any]:
    """Entry point executed inside a pool process (module-level: picklable).

    When the parent sweep carries a telemetry scope the worker builds its
    own, runs the job through it and ships the serialized scope back under
    the ``"telemetry"`` key; the parent merges it with
    :meth:`repro.telemetry.Telemetry.absorb`.
    """
    telemetry: Optional[Any] = None
    if want_telemetry:
        from repro.telemetry import Telemetry

        telemetry = Telemetry(profile=profile, trace=trace)
    payload = execute_job(spec, telemetry=telemetry)
    if telemetry is not None:
        payload["telemetry"] = telemetry.dump_state()
    return payload
