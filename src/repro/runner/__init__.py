"""Parallel, cached, resumable experiment execution.

Every paper figure is a ``(scheme x load x seed)`` grid of independent
points — embarrassing parallelism the serial harness left on the table.
This package supplies the execution layer:

* :class:`JobSpec` — one runnable unit (an experiment point or an incast
  run) with a deterministic content **fingerprint** (stable hash of the
  config plus a schema version tag);
* :class:`ResultCache` — an append-only JSONL cache keyed by fingerprint,
  so re-running a sweep skips completed points and an interrupted grid
  resumes where it stopped;
* :func:`run_jobs` — a ``ProcessPoolExecutor``-backed pool with per-job
  timeouts, bounded retry on worker crash, graceful serial fallback, a
  stderr progress reporter, and telemetry merging (workers ship their
  scope back; the parent absorbs it).

Typical use::

    from repro.harness.sweep import sweep_loads
    from repro.runner import RunnerConfig

    series = sweep_loads(
        base, ["ecmp", "clove-ecn"], [0.3, 0.5, 0.7], seeds=(1, 2, 3),
        runner=RunnerConfig(jobs=8, cache_dir=".repro-cache", progress=True),
    )

or from the CLI: ``python -m repro sweep -j 8 --cache-dir .repro-cache``.
"""

from repro import lazy_exports

_EXPORTS = {
    "CACHE_FILENAME": "cache",
    "JOB_KINDS": "job",
    "JobResult": "pool",
    "JobSpec": "job",
    "ProgressReporter": "progress",
    "ResultCache": "cache",
    "RunnerConfig": "pool",
    "SCHEMA_VERSION": "job",
    "canonicalize": "job",
    "execute_job": "worker",
    "fingerprint_payload": "job",
    "fork_available": "pool",
    "pool_worker": "worker",
    "run_jobs": "pool",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
