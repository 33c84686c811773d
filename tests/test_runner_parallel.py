"""Parallel-path tests for repro.runner: determinism, resume, crash/timeout.

These are the acceptance tests of the runner subsystem: a parallel sweep
must be bit-identical to the serial one, a second invocation against the
same cache dir must execute nothing, and worker crashes/timeouts must be
retried and then surfaced — never hang the batch.
"""

import dataclasses
import json
import os
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.harness.experiment import ExperimentConfig
from repro.runner import JobSpec, RunnerConfig, run_jobs
from repro.runner.pool import offered_bytes
from repro.telemetry import Telemetry
from repro.workloads.distributions import WORKLOADS

SCHEMES = ("ecmp", "clove-ecn")
LOADS = (0.3, 0.5, 0.7)
SEEDS = (1, 2, 3)


def _base() -> ExperimentConfig:
    return ExperimentConfig(
        jobs_per_client=4, clients_per_leaf=2, connections_per_client=1
    )


def _grid(loads=LOADS, seeds=SEEDS, **fields):
    """The scheme x load x seed grid as runner jobs, in grid order."""
    return [
        JobSpec.experiment(dataclasses.replace(
            _base(), scheme=scheme, load=load, seed=seed, **fields))
        for scheme in SCHEMES
        for load in loads
        for seed in seeds
    ]


def _payloads(results):
    """Every job's metric payload as canonical JSON (NaN == NaN)."""
    return [json.dumps(r.metrics, sort_keys=True) for r in results]


def test_parallel_sweep_matches_serial_bit_for_bit():
    """2 schemes x 3 loads x 3 seeds: jobs=4 must equal jobs=1 exactly."""
    serial = run_jobs(_grid(), runner=RunnerConfig(jobs=1))
    parallel = run_jobs(_grid(), runner=RunnerConfig(jobs=4))
    assert all(r.ok for r in serial)
    assert _payloads(serial) == _payloads(parallel)


def test_parallel_sweep_matches_serial_under_audit_digest():
    """The serial-vs-parallel identity, re-proven by the audit digest: the
    same grid run with ``audit="report"`` must yield identical event-stream
    digests (and clean reports) from jobs=1 and jobs=4 executions."""
    specs = _grid(LOADS[:2], SEEDS[:2], audit="report")
    serial = run_jobs(list(specs), runner=RunnerConfig(jobs=1))
    parallel = run_jobs(list(specs), runner=RunnerConfig(jobs=4))
    for s, p in zip(serial, parallel):
        assert s.ok and p.ok
        assert s.audit["ok"] and p.audit["ok"]
        assert s.audit["digest"] == p.audit["digest"]


def test_second_invocation_runs_nothing(tmp_path, monkeypatch):
    """With a warm cache every grid point is served without executing."""
    runner = RunnerConfig(jobs=4, cache_dir=str(tmp_path))
    first = run_jobs(_grid(LOADS[:2], SEEDS[:2]), runner=runner)

    def boom(*args, **kwargs):
        raise AssertionError("run_experiment must not be called on a warm cache")

    monkeypatch.setattr("repro.harness.experiment.run_experiment", boom)
    second = run_jobs(_grid(LOADS[:2], SEEDS[:2]), runner=runner)
    assert all(r.cached for r in second)
    assert _payloads(first) == _payloads(second)


def test_interrupted_grid_resumes(tmp_path):
    """A cache holding a prefix of the grid only re-runs the missing points."""
    runner = RunnerConfig(cache_dir=str(tmp_path))
    specs = [
        JobSpec.experiment(
            ExperimentConfig(
                scheme=scheme, load=0.3, seed=seed,
                jobs_per_client=4, clients_per_leaf=2, connections_per_client=1,
            )
        )
        for scheme in SCHEMES
        for seed in (1, 2)
    ]
    run_jobs(specs[:2], runner=runner)  # the "interrupted" first half
    results = run_jobs(specs, runner=runner)
    assert [r.cached for r in results] == [True, True, False, False]
    assert all(r.ok for r in results)


def test_parallel_telemetry_merges_into_parent():
    """Each pooled worker's telemetry dump lands in the parent scope."""
    telemetry = Telemetry()
    specs = [
        JobSpec.experiment(
            ExperimentConfig(
                scheme="ecmp", load=0.3, seed=seed,
                jobs_per_client=4, clients_per_leaf=2, connections_per_client=1,
            )
        )
        for seed in (1, 2, 3)
    ]
    results = run_jobs(specs, runner=RunnerConfig(jobs=2), telemetry=telemetry)
    assert all(r.ok for r in results)
    assert len(telemetry.manifests) == len(specs)
    counters = {
        (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
        for c in telemetry.registry.dump()["counters"]
    }
    assert counters, "worker metric registries must merge into the parent"
    assert any(value > 0 for value in counters.values())
    assert len(telemetry.events) > 0


def test_worker_crash_is_retried_then_surfaced(monkeypatch):
    """A hard worker death consumes retries and ends as a terminal error."""
    def die(*args, **kwargs):
        os._exit(13)

    # Patch before the pool exists: fork inherits the patched module.
    monkeypatch.setattr("repro.harness.experiment.run_experiment", die)
    specs = [JobSpec.experiment(_base()), JobSpec.experiment(
        ExperimentConfig(jobs_per_client=4, clients_per_leaf=2,
                         connections_per_client=1, seed=2)
    )]
    results = run_jobs(specs, runner=RunnerConfig(jobs=2, retries=1))
    assert all(not r.ok for r in results)
    for result in results:
        assert "crashed" in result.error
        assert result.attempts == 2  # 1 initial + 1 retry


def test_stuck_worker_times_out(monkeypatch):
    """A worker that never returns is killed at the deadline, not awaited."""
    def hang(*args, **kwargs):
        time.sleep(60)

    monkeypatch.setattr("repro.harness.experiment.run_experiment", hang)
    specs = [JobSpec.experiment(_base()), JobSpec.experiment(
        ExperimentConfig(jobs_per_client=4, clients_per_leaf=2,
                         connections_per_client=1, seed=2)
    )]
    start = time.monotonic()
    results = run_jobs(
        specs, runner=RunnerConfig(jobs=2, timeout=1.0, retries=0)
    )
    elapsed = time.monotonic() - start
    assert elapsed < 30, "timed-out workers must not be awaited to completion"
    assert all(not r.ok for r in results)
    for result in results:
        assert "timed out" in result.error
        assert result.attempts == 1


def test_ordinary_exception_in_worker_not_retried():
    """Deterministic failures surface once, even on the pooled path."""
    specs = [JobSpec.experiment(ExperimentConfig(seed=seed)) for seed in (1, 2)]
    for spec in specs:
        spec.config.scheme = "bogus"    # past the field's check
    results = run_jobs(specs, runner=RunnerConfig(jobs=2, retries=5))
    assert all(not r.ok for r in results)
    for result in results:
        assert "bogus" in result.error
        assert result.attempts == 1


@pytest.mark.parametrize("jobs", [1, 3])
def test_incast_jobs_run_through_runner(jobs):
    """Incast specs execute on both paths and produce a goodput payload."""
    specs = [
        JobSpec.incast(
            scheme="ecmp", fanout=2, seed=seed, n_requests=2,
            total_bytes=100_000,
        )
        for seed in (1, 2)
    ]
    results = run_jobs(specs, runner=RunnerConfig(jobs=jobs))
    assert all(r.ok for r in results)
    for result in results:
        assert result.metrics["goodput_bps"] > 0


# ----------------------------------------------------------------------
# Dispatch order: longest job (most bytes offered) first
# ----------------------------------------------------------------------
def _job(label, **fields):
    return JobSpec.experiment(
        dataclasses.replace(_base(), **fields), label=label)


def test_offered_bytes_reads_the_config_alone():
    mean = WORKLOADS["web-search"](0.1).analytic_mean()
    assert offered_bytes(_job("a", jobs_per_client=3)) == 3 * 2 * mean
    # clients default to the leaf's hosts: 8 in the default fabric
    assert offered_bytes(_job("b", clients_per_leaf=None)) == 4 * 8 * mean
    assert offered_bytes(JobSpec.incast(
        fanout=2, n_requests=3, total_bytes=1000)) == 3000
    # an incast point's defaults are IncastConfig's: 20 requests of 1 MB
    assert offered_bytes(JobSpec.incast(fanout=2)) == 20 * 1_000_000
    # a spec the worker will refuse ranks last instead of failing here
    assert offered_bytes(JobSpec.incast(bogus=1)) == 0.0


class _FakePool:
    """A stand-in process pool: logs each submitted label, in order, and
    finishes the job at once, except a label in ``crash`` (its worker
    dies) or in ``hold`` (left in flight)."""

    def __init__(self, log, crash=(), hold=()):
        self.log, self.crash, self.hold = log, crash, hold

    def submit(self, fn, spec, *args):
        self.log.append(spec.label)
        future = Future()
        if spec.label in self.crash:
            future.set_exception(BrokenProcessPool("worker died"))
        elif spec.label not in self.hold:
            future.set_result({"metrics": {"label": spec.label}, "wall_s": 0.0})
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def _fake_pools(monkeypatch, log, **first):
    """The first pool built gets ``first``; a rebuilt one runs all."""
    pools = []

    def make(max_workers):
        pools.append(_FakePool(log, **(first if not pools else {})))
        return pools[-1]

    monkeypatch.setattr("repro.runner.pool._make_pool", make)


def test_pooled_dispatch_is_longest_first_and_stable(monkeypatch):
    specs = [
        _job("light-1", jobs_per_client=2, seed=1),
        _job("heavy", jobs_per_client=6),
        _job("light-2", jobs_per_client=2, seed=2),     # ties light-1
        _job("all-hosts", jobs_per_client=2, clients_per_leaf=None),
        JobSpec.incast(label="incast", fanout=2, n_requests=1,
                       total_bytes=1000),
        _job("big-flows", jobs_per_client=2, flow_scale=0.5),
    ]
    log = []
    _fake_pools(monkeypatch, log)
    results = run_jobs(specs, runner=RunnerConfig(jobs=2))
    # bytes, not flows: 4 flows at 5x the size outrank 16 and 12 flows
    assert log == ["big-flows", "all-hosts", "heavy", "light-1", "light-2",
                   "incast"]
    assert [r.spec.label for r in results] == [s.label for s in specs]
    assert [r.metrics["label"] for r in results] == [s.label for s in specs]


def test_a_crash_requeues_the_innocent_first_and_retries_the_culprit(
        monkeypatch):
    specs = [_job("light", jobs_per_client=2), _job("mid", jobs_per_client=3),
             _job("heavy", jobs_per_client=6)]
    log = []
    _fake_pools(monkeypatch, log, crash=("heavy",), hold=("mid",))
    results = run_jobs(specs, runner=RunnerConfig(jobs=2))
    # heavy and mid start; heavy's worker dies while mid is in flight: mid
    # goes back to the front, heavy to the back, on a rebuilt pool
    assert log == ["heavy", "mid", "mid", "light", "heavy"]
    assert all(r.ok for r in results)
    assert [r.attempts for r in results] == [1, 1, 2]


def test_heaviest_job_last_in_input_order_matches_serial():
    specs = [JobSpec.experiment(dataclasses.replace(
        _base(), seed=seed)) for seed in (1, 2, 3)]
    specs.append(JobSpec.experiment(dataclasses.replace(
        _base(), jobs_per_client=12, seed=4)))
    serial = run_jobs(specs, runner=RunnerConfig(jobs=1))
    pooled = run_jobs(specs, runner=RunnerConfig(jobs=2))
    assert [r.spec for r in pooled] == specs
    assert all(r.ok for r in pooled)
    assert _payloads(serial) == _payloads(pooled)
