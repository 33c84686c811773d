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

Typical use is through a suite, which lowers its whole grid to one
:func:`run_jobs` batch::

    from repro.runner import RunnerConfig
    from repro.suite import bundled_suite, run_suite

    result = run_suite(
        bundled_suite("paper-smoke"),
        runner=RunnerConfig(jobs=8, cache_dir=".repro-cache", progress=True),
    )

or from the CLI: ``python -m repro sweep -j 8 --cache-dir .repro-cache``.
"""

from repro import lazy_exports

_EXPORTS = {
    "JobSpec": "job",
    "ResultCache": "cache",
    "RunnerConfig": "pool",
    "SCHEMA_VERSION": "job",
    "canonicalize": "job",
    "fingerprint_payload": "job",
    "run_jobs": "pool",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
