"""Parallel, cached, resumable batch execution — :func:`run_jobs`.

The execution policy, in order:

0. specs with equal fingerprints run once: the first occurrence executes
   (or is served from the cache) and the others receive a copy of its
   result;
1. every spec is first looked up in the result cache (when a cache dir is
   configured) — hits never execute and never touch the pool;
2. ``jobs <= 1``, or a platform without ``fork``, runs the misses serially
   in-process (the parent telemetry scope is threaded straight through,
   exactly like the pre-runner code path);
3. otherwise the misses are put in dispatch order, longest job first:
   descending bytes offered (:func:`offered_bytes`, read from each job's
   config alone), input order kept between ties, so the longest jobs do
   not start last and leave a worker idle at the end of the batch.
   Results do not depend on this order;
4. they then run on a ``ProcessPoolExecutor`` with at most ``jobs``
   workers, forked after :func:`load_before_fork` has imported what they
   will run.  Each in-flight job has a deadline (``timeout``); a job that
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

import gc
import multiprocessing
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from importlib import import_module
from typing import Any, Dict, List, Optional, Sequence, Tuple

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

    Each distinct fingerprint runs once per batch, at its first index; a
    later spec with the same fingerprint gets a copy of that result under
    its own spec, with ``attempts`` and ``wall_s`` 0 (it executed nothing),
    and the cache gets one line.  Progress counts distinct jobs.

    ``telemetry`` is the parent :class:`~repro.telemetry.Telemetry` scope:
    serial execution reports into it directly; pooled workers build their
    own scope and the parent absorbs each worker's dump as it completes.
    The artifact holds one manifest per distinct job either way (cache
    hits record a ``cached`` manifest); a duplicate records none, since it
    is not a run.
    """
    cfg = runner if runner is not None else RunnerConfig()
    specs = list(specs)
    cache = ResultCache(cfg.cache_dir) if cfg.cache_dir else None
    results: List[Optional[JobResult]] = [None] * len(specs)
    tel_enabled = telemetry is not None and getattr(telemetry, "enabled", False)

    pending: List[int] = []
    #: fingerprint -> the index that runs it
    first: Dict[str, int] = {}
    #: (duplicate index, index whose result it copies)
    copies: List[Tuple[int, int]] = []
    for index, spec in enumerate(specs):
        fingerprint = spec.fingerprint
        if fingerprint in first:
            copies.append((index, first[fingerprint]))
            continue
        first[fingerprint] = index
        entry = cache.get(fingerprint) if cache is not None else None
        if entry is not None:
            results[index] = JobResult(
                spec, dict(entry["metrics"]), cached=True,
                audit=entry.get("audit"),
            )
            if tel_enabled:
                telemetry.manifest(
                    run="cached",
                    fingerprint=fingerprint,
                    label=spec.label,
                    cache_dir=str(cache.dir),
                )
        else:
            pending.append(index)

    progress = ProgressReporter(total=len(first), enabled=cfg.progress)
    progress.note_cached(len(first) - len(pending))

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

    for index, source in copies:
        done = results[source]  # filled: a fingerprint's first index ran
        results[index] = replace(  # type: ignore[arg-type]
            done, spec=specs[index], attempts=0, wall_s=0.0,
            metrics=None if done.metrics is None else dict(done.metrics),
        )
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


def load_before_fork(specs: Sequence[JobSpec]) -> None:
    """Import what ``specs`` will run, here in the parent: forked workers
    inherit the modules instead of each compiling them inside its first
    job."""
    configs = [spec.config for spec in specs if spec.kind == "experiment"]
    incasts = [dict(spec.params) for spec in specs if spec.kind == "incast"]
    if configs:
        import repro.chaos.metrics  # noqa: F401  (standard_metrics' reports)
        import repro.harness.experiment  # noqa: F401
        import repro.harness.metrics  # noqa: F401
    if incasts:
        import repro.harness.incast  # noqa: F401
    if any(config.asymmetric or config.chaos for config in configs):
        import repro.chaos.engine  # noqa: F401  (and repro.chaos.plan)
    if any(config.health for config in configs):
        import repro.core.health  # noqa: F401
    if any(config.audit for config in configs):
        import repro.audit.auditor  # noqa: F401
    # each selected scheme's row names its code by "module:attr"
    from repro.harness.schemes import SCHEMES

    schemes = [config.scheme for config in configs] + [
        params.get("scheme") for params in incasts]
    for name in dict.fromkeys(schemes):
        row = SCHEMES.get(name)
        if row is None:     # the default, or a name the worker refuses
            continue
        for ref in (row.policy, row.leaf_switch, row.spine_switch,
                    row.fabric_hook, row.opener):
            if ref is not None:
                import_module(ref.partition(":")[0])


def offered_bytes(spec: JobSpec) -> float:
    """The bytes a job's workload offers, from its config alone: how the
    pool ranks jobs by length.

    An experiment offers ``jobs_per_client`` jobs from each client (the
    leaf's hosts, or ``clients_per_leaf`` of them) at the workload's mean
    flow size; an incast point offers ``n_requests`` requests of
    ``total_bytes``.  A spec it cannot read ranks last: its error is
    reported from the worker that runs it.
    """
    from repro.harness.config import incast_configs
    from repro.harness.experiment import default_topology
    from repro.workloads.distributions import WORKLOADS

    try:
        if spec.kind == "incast":
            _, incast = incast_configs(**dict(spec.params))
            return float(incast.n_requests * incast.total_bytes)
        config = spec.config
        hosts = (config.topology or default_topology()).hosts_per_leaf
        clients = min(hosts, config.clients_per_leaf or hosts)
        mean = WORKLOADS[config.workload](config.flow_scale).analytic_mean()
        return config.jobs_per_client * clients * mean
    except Exception:  # the worker that runs it reports the error
        return 0.0


def _run_pooled(specs, pending, results, cache, telemetry, cfg, progress) -> None:
    tel_enabled = telemetry is not None and getattr(telemetry, "enabled", False)
    load_before_fork([specs[index] for index in pending])
    state = _PoolState(
        max_workers=min(cfg.jobs, len(pending)),
        want_telemetry=tel_enabled,
        profile=tel_enabled and getattr(telemetry, "profiler", None) is not None,
        trace=tel_enabled and getattr(telemetry, "trace", None) is not None
        and telemetry.trace.enabled,
        # longest job first; sorted() is stable, so ties keep input order
        queue=deque(sorted(
            pending, key=lambda index: -offered_bytes(specs[index]))),
        attempts={index: 0 for index in pending},
    )
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

    # The workers fork from this heap (at the first submit).  Frozen, it is
    # out of reach of their collector, which would otherwise walk, and so
    # copy, every inherited object on each full collection.
    gc.freeze()
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
        gc.unfreeze()
