"""Parallel, cached, resumable batch execution — :func:`run_jobs`.

The execution policy, in order:

1. every spec is first looked up in the result cache (when a cache dir is
   configured) — hits never execute and never touch the pool;
2. ``jobs <= 1``, or a platform without ``fork``, runs the misses serially
   in-process (the parent telemetry scope is threaded straight through,
   exactly like the pre-runner code path);
3. otherwise misses run on a ``ProcessPoolExecutor`` with at most ``jobs``
   workers.  Each in-flight job has a deadline (``timeout``); a job that
   exceeds it is failed-and-retried and the pool is rebuilt so the stuck
   worker actually dies.  A worker crash (``BrokenProcessPool``) likewise
   retries every in-flight job up to ``retries`` extra attempts.  A job
   that raises an ordinary exception is *not* retried — experiment errors
   are deterministic — and surfaces as ``JobResult.error``.

Completed payloads append to the cache as they arrive, so interrupting a
grid (Ctrl-C, crash, power loss) loses at most the points still in
flight; the next invocation resumes from the cached prefix.
"""

from __future__ import annotations

import multiprocessing
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.runner.cache import ResultCache
from repro.runner.job import JobSpec
from repro.runner.progress import ProgressReporter
from repro.runner.worker import execute_job, pool_worker

#: poll interval for the pool event loop (seconds)
_TICK = 0.1


@dataclass
class RunnerConfig:
    """How :func:`run_jobs` executes a batch."""

    #: parallel worker processes; ``1`` = serial in-process
    jobs: int = 1
    #: directory for the JSONL result cache; None disables caching
    cache_dir: Optional[str] = None
    #: per-job wall-clock budget in seconds (pooled execution only)
    timeout: Optional[float] = None
    #: extra attempts after a worker crash or timeout (not after ordinary
    #: exceptions, which are deterministic)
    retries: int = 2
    #: paint done/total + ETA on stderr
    progress: bool = False


@dataclass
class JobResult:
    """Outcome of one :class:`JobSpec` in a batch."""

    spec: JobSpec
    #: the scalar metric payload, or None when the job failed terminally
    metrics: Optional[Dict[str, Any]]
    #: True when served from the result cache without executing
    cached: bool = False
    #: execution attempts consumed (0 for cache hits)
    attempts: int = 0
    #: terminal failure description, or None on success
    error: Optional[str] = None
    #: wall seconds the (last) execution took (0 for cache hits)
    wall_s: float = 0.0
    #: the run's serialized AuditReport (repro.audit) when the job was
    #: audited; restored from the cache on hits, None when unaudited
    audit: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        """True when the job produced a metric payload."""
        return self.metrics is not None


def fork_available() -> bool:
    """Whether this platform supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def run_jobs(
    specs: Sequence[JobSpec],
    runner: Optional[RunnerConfig] = None,
    telemetry=None,
) -> List[JobResult]:
    """Execute a batch of jobs; returns one :class:`JobResult` per spec,
    in input order.

    ``telemetry`` is the parent :class:`~repro.telemetry.Telemetry` scope:
    serial execution reports into it directly; pooled workers build their
    own scope and the parent absorbs each worker's dump as it completes
    (one manifest per job either way — cache hits record a ``cached``
    manifest).
    """
    cfg = runner if runner is not None else RunnerConfig()
    specs = list(specs)
    cache = ResultCache(cfg.cache_dir) if cfg.cache_dir else None
    results: List[Optional[JobResult]] = [None] * len(specs)
    tel_enabled = telemetry is not None and getattr(telemetry, "enabled", False)

    pending: List[int] = []
    for index, spec in enumerate(specs):
        entry = cache.get(spec.fingerprint) if cache is not None else None
        if entry is not None:
            results[index] = JobResult(
                spec, dict(entry["metrics"]), cached=True,
                audit=entry.get("audit"),
            )
            if tel_enabled:
                telemetry.manifest(
                    run="cached",
                    fingerprint=spec.fingerprint,
                    label=spec.label,
                    cache_dir=str(cache.dir),
                )
        else:
            pending.append(index)

    progress = ProgressReporter(total=len(specs), enabled=cfg.progress)
    progress.note_cached(len(specs) - len(pending))

    if pending:
        use_pool = cfg.jobs > 1 and len(pending) > 1
        if use_pool and not fork_available():
            warnings.warn(
                "platform lacks the fork start method; running serially",
                RuntimeWarning,
                stacklevel=2,
            )
            use_pool = False
        if use_pool:
            _run_pooled(specs, pending, results, cache, telemetry, cfg, progress)
        else:
            _run_serial(specs, pending, results, cache, telemetry, progress)

    progress.finish()
    return results  # type: ignore[return-value]  # every slot is filled


# ----------------------------------------------------------------------
# Serial path
# ----------------------------------------------------------------------
def _run_serial(specs, pending, results, cache, telemetry, progress) -> None:
    for index in pending:
        spec = specs[index]
        try:
            payload = execute_job(spec, telemetry=telemetry)
        except Exception as exc:  # deterministic job error: no retry
            results[index] = JobResult(
                spec, None, attempts=1,
                error=f"{type(exc).__name__}: {exc}",
            )
            progress.job_done(failed=True)
            continue
        results[index] = JobResult(
            spec, payload["metrics"], attempts=1, wall_s=payload["wall_s"],
            audit=payload.get("audit"),
        )
        if cache is not None:
            cache.put(
                spec, payload["metrics"], payload["wall_s"],
                audit=payload.get("audit"),
            )
        progress.job_done()


# ----------------------------------------------------------------------
# Pooled path
# ----------------------------------------------------------------------
@dataclass
class _PoolState:
    """Book-keeping for one pooled batch (rebuilt pools share it)."""

    max_workers: int
    want_telemetry: bool
    profile: bool
    trace: bool = True
    queue: deque = field(default_factory=deque)
    attempts: Dict[int, int] = field(default_factory=dict)
    inflight: Dict[Any, Any] = field(default_factory=dict)  # future -> (idx, t0)


def _make_pool(max_workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(
        max_workers=max_workers, mp_context=multiprocessing.get_context("fork")
    )


def _teardown_pool(pool: ProcessPoolExecutor) -> None:
    """Shut a pool down hard, killing workers that refuse to finish."""
    try:
        processes = list(getattr(pool, "_processes", {}).values())
    except Exception:
        processes = []
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass


def _run_pooled(specs, pending, results, cache, telemetry, cfg, progress) -> None:
    tel_enabled = telemetry is not None and getattr(telemetry, "enabled", False)
    state = _PoolState(
        max_workers=min(cfg.jobs, len(pending)),
        want_telemetry=tel_enabled,
        profile=tel_enabled and getattr(telemetry, "profiler", None) is not None,
        trace=tel_enabled and getattr(telemetry, "trace", None) is not None
        and telemetry.trace.enabled,
        queue=deque(pending),
        attempts={index: 0 for index in pending},
    )
    # Load what the jobs will run here, before the fork: workers inherit the
    # modules instead of each importing them inside its first job.
    kinds = {specs[index].kind for index in pending}
    if "experiment" in kinds:
        import repro.chaos.metrics  # noqa: F401  (standard_metrics' reports)
        import repro.harness.experiment  # noqa: F401
        import repro.harness.metrics  # noqa: F401
    if "incast" in kinds:
        import repro.harness.incast  # noqa: F401
    pool = _make_pool(state.max_workers)

    def submit(index: int) -> None:
        future = pool.submit(
            pool_worker, specs[index], state.want_telemetry, state.profile,
            state.trace,
        )
        state.attempts[index] += 1
        state.inflight[future] = (index, time.monotonic())

    def retry_or_fail(index: int, reason: str) -> None:
        if state.attempts[index] <= cfg.retries:
            state.queue.append(index)
        else:
            results[index] = JobResult(
                specs[index], None, attempts=state.attempts[index], error=reason
            )
            progress.job_done(failed=True)

    def finish(index: int, payload: Dict[str, Any]) -> None:
        results[index] = JobResult(
            specs[index],
            payload["metrics"],
            attempts=state.attempts[index],
            wall_s=payload["wall_s"],
            audit=payload.get("audit"),
        )
        if cache is not None:
            cache.put(
                specs[index], payload["metrics"], payload["wall_s"],
                audit=payload.get("audit"),
            )
        if tel_enabled and payload.get("telemetry") is not None:
            telemetry.absorb(payload["telemetry"])
        progress.job_done()

    try:
        while state.queue or state.inflight:
            try:
                while state.queue and len(state.inflight) < state.max_workers:
                    submit(state.queue[0])
                    state.queue.popleft()
            except BrokenProcessPool:
                # A worker died between two submits; the future already in
                # flight reports the crash below and the pool is rebuilt.
                pass

            done, _ = wait(
                list(state.inflight), timeout=_TICK, return_when=FIRST_COMPLETED
            )
            broken = False
            for future in done:
                index, _t0 = state.inflight.pop(future)
                try:
                    payload = future.result()
                except BrokenProcessPool:
                    broken = True
                    retry_or_fail(
                        index,
                        f"worker crashed (attempt {state.attempts[index]})",
                    )
                except Exception as exc:  # deterministic job error: no retry
                    results[index] = JobResult(
                        specs[index], None,
                        attempts=state.attempts[index],
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    progress.job_done(failed=True)
                else:
                    finish(index, payload)

            if broken:
                # A crash poisons every other in-flight future too; those
                # jobs were innocent, so resubmission does not count as an
                # attempt against them.
                for future, (index, _t0) in list(state.inflight.items()):
                    state.attempts[index] -= 1
                    state.queue.appendleft(index)
                state.inflight.clear()
                _teardown_pool(pool)
                pool = _make_pool(state.max_workers)
                continue

            if cfg.timeout is not None and state.inflight:
                now = time.monotonic()
                expired = [
                    (future, index)
                    for future, (index, t0) in state.inflight.items()
                    if now - t0 > cfg.timeout and not future.done()
                ]
                if expired:
                    expired_indices = set()
                    for future, index in expired:
                        state.inflight.pop(future)
                        expired_indices.add(index)
                        retry_or_fail(
                            index,
                            f"timed out after {cfg.timeout:g}s "
                            f"(attempt {state.attempts[index]})",
                        )
                    # Killing the stuck workers takes the pool with them;
                    # in-flight jobs that had not expired resubmit free.
                    for future, (index, _t0) in list(state.inflight.items()):
                        state.attempts[index] -= 1
                        state.queue.appendleft(index)
                    state.inflight.clear()
                    _teardown_pool(pool)
                    pool = _make_pool(state.max_workers)
    finally:
        _teardown_pool(pool)
