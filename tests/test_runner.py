"""Unit tests for the repro.runner subsystem: job model, cache, serial path."""

import dataclasses
import json
import math

import pytest

from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.metrics import METRIC_KEYS, standard_metrics
from repro.harness.report import render_table
from repro.runner import (
    JobSpec,
    ResultCache,
    RunnerConfig,
    SCHEMA_VERSION,
    canonicalize,
    run_jobs,
)
from repro.runner import job as job_module
from repro.suite import ScenarioSpec, SuiteSpec, results_equal, run_suite
from repro.suite.execute import ScenarioResult, SuiteResult
from repro.suite.figures import FIGURES, line_series
from repro.suite.spec import KIND_METRICS
from repro.topology.leafspine import LeafSpineConfig


def _metrics_equal(a, b) -> bool:
    """Bit-exact dict equality where NaN == NaN (JSON round-trips break
    NaN identity, so plain ``==`` rejects payloads that are in fact equal)."""
    if set(a) != set(b):
        return False
    for key, value in a.items():
        other = b[key]
        if isinstance(value, float) and math.isnan(value):
            if not (isinstance(other, float) and math.isnan(other)):
                return False
        elif value != other:
            return False
    return True


def _quick(scheme="ecmp", **overrides) -> ExperimentConfig:
    defaults = dict(
        scheme=scheme,
        load=0.3,
        jobs_per_client=4,
        clients_per_leaf=2,
        connections_per_client=1,
        seed=5,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def _failing_config(**overrides) -> ExperimentConfig:
    """A config whose run raises in the worker: its scheme is set past
    the field's check."""
    config = ExperimentConfig(**overrides)
    config.scheme = "bogus"
    return config


class TestFingerprint:
    def test_identical_configs_hash_identically(self):
        a = JobSpec.experiment(_quick())
        b = JobSpec.experiment(_quick())
        assert a.fingerprint == b.fingerprint

    def test_any_field_change_changes_the_hash(self):
        base = JobSpec.experiment(_quick()).fingerprint
        assert JobSpec.experiment(_quick(seed=6)).fingerprint != base
        assert JobSpec.experiment(_quick(load=0.4)).fingerprint != base
        assert JobSpec.experiment(_quick(scheme="clove-ecn")).fingerprint != base
        assert JobSpec.experiment(_quick(asymmetric=True)).fingerprint != base

    def test_stable_across_field_ordering(self):
        # kwargs order must not matter — for configs...
        a = JobSpec.experiment(ExperimentConfig(scheme="ecmp", load=0.5, seed=2))
        b = JobSpec.experiment(ExperimentConfig(seed=2, load=0.5, scheme="ecmp"))
        assert a.fingerprint == b.fingerprint
        # ...and for incast parameter dicts.
        x = JobSpec.incast(scheme="ecmp", fanout=4, seed=1)
        y = JobSpec.incast(seed=1, fanout=4, scheme="ecmp")
        assert x.fingerprint == y.fingerprint

    def test_nested_topology_and_classes_fingerprint(self):
        topo = LeafSpineConfig(hosts_per_leaf=4)
        a = JobSpec.experiment(_quick(topology=topo))
        b = JobSpec.experiment(_quick(topology=LeafSpineConfig(hosts_per_leaf=4)))
        c = JobSpec.experiment(_quick(topology=LeafSpineConfig(hosts_per_leaf=8)))
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint != c.fingerprint
        # switch classes canonicalize to qualified names, not addresses
        assert "Switch" in json.dumps(canonicalize(topo))

    def test_schema_version_invalidates(self, monkeypatch):
        before = JobSpec.experiment(_quick()).fingerprint
        monkeypatch.setattr(job_module, "SCHEMA_VERSION", SCHEMA_VERSION + 1)
        assert JobSpec.experiment(_quick()).fingerprint != before

    def test_kind_separates_namespaces(self):
        from repro.runner import fingerprint_payload

        assert fingerprint_payload("experiment", {"a": 1}) != fingerprint_payload(
            "incast", {"a": 1}
        )
        assert JobSpec.incast(x=1).fingerprint != JobSpec.incast(x=2).fingerprint

    def test_hashed_once_per_spec(self, monkeypatch):
        calls = []
        real = job_module.fingerprint_payload

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(job_module, "fingerprint_payload", counting)
        spec = JobSpec.experiment(_quick())
        assert spec.fingerprint == spec.fingerprint == spec.fingerprint
        assert len(calls) == 1
        # a replace() copy hashes its own fields, not the original's
        copy = dataclasses.replace(spec, config=_quick(seed=6))
        assert copy.fingerprint == JobSpec.experiment(_quick(seed=6)).fingerprint
        assert copy.fingerprint != spec.fingerprint

    def test_labels_do_not_affect_fingerprint(self):
        a = JobSpec.experiment(_quick(), label="one")
        b = JobSpec.experiment(_quick(), label="two")
        assert a.fingerprint == b.fingerprint


class TestResultCache:
    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = JobSpec.experiment(_quick())
        cache.put(spec, {"avg_fct": 1.5}, wall_s=0.1)
        entry = cache.get(spec.fingerprint)
        assert entry is not None
        assert entry["metrics"]["avg_fct"] == 1.5
        # a fresh cache object re-reads from disk
        assert ResultCache(tmp_path).get(spec.fingerprint) is not None

    def test_miss_returns_none(self, tmp_path):
        assert ResultCache(tmp_path).get("deadbeef") is None

    def test_stale_schema_entries_are_ignored(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = JobSpec.experiment(_quick())
        record = cache.put(spec, {"avg_fct": 1.5})
        stale = dict(record, schema=SCHEMA_VERSION - 1, fingerprint="feedface")
        with open(cache.path, "a", encoding="utf-8") as fp:
            fp.write(json.dumps(stale) + "\n")
        fresh = ResultCache(tmp_path)
        assert fresh.get("feedface") is None
        assert fresh.get(spec.fingerprint) is not None
        assert fresh.stale_entries == 1

    def test_corrupt_lines_warn_not_crash(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = JobSpec.experiment(_quick())
        cache.put(spec, {"avg_fct": 2.0})
        with open(cache.path, "a", encoding="utf-8") as fp:
            fp.write('{"fingerprint": "truncated, no closing br\n')
            fp.write("not json at all\n")
        fresh = ResultCache(tmp_path)
        with pytest.warns(RuntimeWarning, match="corrupt"):
            entry = fresh.get(spec.fingerprint)
        assert entry is not None
        assert fresh.corrupt_lines == 2

    def test_duplicate_fingerprints_keep_latest(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = JobSpec.experiment(_quick())
        cache.put(spec, {"avg_fct": 1.0})
        cache.put(spec, {"avg_fct": 2.0})
        assert ResultCache(tmp_path).get(spec.fingerprint)["metrics"]["avg_fct"] == 2.0

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(JobSpec.experiment(_quick()), {"avg_fct": 1.0})
        assert cache.clear() == 1
        assert len(cache) == 0
        assert not cache.path.exists()


class TestRunJobsSerial:
    def test_matches_direct_run_experiment(self):
        config = _quick()
        (result,) = run_jobs([JobSpec.experiment(config)])
        direct = standard_metrics(run_experiment(config))
        assert result.ok and not result.cached and result.attempts == 1
        assert _metrics_equal(result.metrics, direct)

    def test_payload_carries_every_metric_key(self):
        (result,) = run_jobs([JobSpec.experiment(_quick())])
        assert set(result.metrics) == set(METRIC_KEYS)

    def test_cache_hit_skips_run_experiment(self, tmp_path, monkeypatch):
        config = _quick()
        runner = RunnerConfig(cache_dir=str(tmp_path))
        (first,) = run_jobs([JobSpec.experiment(config)], runner=runner)
        calls = []
        monkeypatch.setattr(
            "repro.harness.experiment.run_experiment",
            lambda *a, **k: calls.append(1) or (_ for _ in ()).throw(AssertionError),
        )
        (second,) = run_jobs([JobSpec.experiment(config)], runner=runner)
        assert calls == []
        assert second.cached and second.attempts == 0
        assert _metrics_equal(second.metrics, first.metrics)

    def test_cached_floats_roundtrip_exactly(self, tmp_path):
        config = _quick()
        runner = RunnerConfig(cache_dir=str(tmp_path))
        (first,) = run_jobs([JobSpec.experiment(config)], runner=runner)
        (second,) = run_jobs([JobSpec.experiment(config)], runner=runner)
        # JSON float round-trip is exact (NaN aside, which _metrics_equal folds)
        assert _metrics_equal(first.metrics, second.metrics)

    def test_deterministic_error_is_not_retried(self):
        bad = _failing_config()
        (result,) = run_jobs([JobSpec.experiment(bad)], runner=RunnerConfig(retries=5))
        assert not result.ok
        assert result.attempts == 1
        assert "bogus" in result.error

    def test_failed_jobs_are_not_cached(self, tmp_path):
        runner = RunnerConfig(cache_dir=str(tmp_path))
        run_jobs([JobSpec.experiment(_failing_config())], runner=runner)
        assert len(ResultCache(tmp_path)) == 0

    def test_results_preserve_input_order(self, tmp_path):
        specs = [JobSpec.experiment(_quick(seed=s)) for s in (1, 2, 3)]
        runner = RunnerConfig(cache_dir=str(tmp_path))
        run_jobs([specs[1]], runner=runner)  # pre-cache the middle spec
        results = run_jobs(specs, runner=runner)
        assert [r.spec.fingerprint for r in results] == [s.fingerprint for s in specs]
        assert [r.cached for r in results] == [False, True, False]


def _counting_stub(log):
    """An ``execute_job`` that runs nothing and appends each call's
    fingerprint to ``log`` (a file: forked pool workers share it)."""

    def execute_job(spec, telemetry=None):
        with open(log, "a") as fp:
            fp.write(spec.fingerprint + "\n")
        return {"metrics": {"fingerprint": spec.fingerprint},
                "wall_s": 0.5, "audit": {"ok": True}}

    return execute_job


def _paper_figures_jobs():
    from repro.suite.bundles import paper_figures

    spec = paper_figures()
    return [scenario.job(seed) for scenario in spec.expand()
            for seed in spec.seeds]


class TestEachFingerprintRunsOnce:
    """Equal fingerprints in one batch execute once; the rest copy."""

    @pytest.fixture(params=[1, 2], ids=["serial", "pooled"])
    def stubbed(self, request, tmp_path, monkeypatch):
        log = tmp_path / "calls.log"
        stub = _counting_stub(log)
        monkeypatch.setattr("repro.runner.pool.execute_job", stub)
        monkeypatch.setattr("repro.runner.worker.execute_job", stub)
        runner = RunnerConfig(jobs=request.param, cache_dir=str(tmp_path / "c"))

        def run(specs):
            results = run_jobs(specs, runner=runner)
            calls = log.read_text().split() if log.exists() else []
            return results, calls

        return run

    def test_paper_figures_runs_each_distinct_point_once(self, stubbed,
                                                         tmp_path):
        specs = _paper_figures_jobs()
        distinct = {spec.fingerprint for spec in specs}
        assert (len(specs), len(distinct)) == (80, 77)
        results, calls = stubbed(specs)
        assert sorted(calls) == sorted(distinct)
        assert [r.spec for r in results] == specs
        for result in results:
            assert result.ok and result.audit == {"ok": True}
            assert result.metrics["fingerprint"] == result.spec.fingerprint
        assert sum(r.attempts for r in results) == 77
        assert len(ResultCache(tmp_path / "c")) == 77

    def test_a_repeated_spec_runs_once(self, stubbed, tmp_path):
        spec = JobSpec.experiment(_quick(seed=7), label="twice")
        (first, second), calls = stubbed([spec, spec])
        assert calls == [spec.fingerprint]
        assert first.metrics == second.metrics
        assert first.metrics is not second.metrics
        assert first.audit == second.audit
        assert (first.attempts, second.attempts) == (1, 0)
        assert (first.wall_s, second.wall_s) == (0.5, 0.0)
        assert len(ResultCache(tmp_path / "c")) == 1


def _sweep(loads=(0.3, 0.5), seeds=(1,), **base) -> SuiteSpec:
    """The ad-hoc suite `repro sweep` builds: one scheme x load matrix."""
    return SuiteSpec(
        name="sweep", seeds=tuple(seeds),
        scenarios=[ScenarioSpec(
            "sweep",
            base={"jobs_per_client": 4, "clients_per_leaf": 2,
                  "connections_per_client": 1, **base},
            matrix={"scheme": ["ecmp"], "load": list(loads)},
        )],
    )


_ECMP_LINE = [("ecmp", "sweep", (("scheme", "ecmp"),))]


class TestMetricResolution:
    def test_bundled_extractors_are_tagged(self):
        # every figure row reads a payload key, so its points cross the
        # process and cache boundaries (Fig 9 alone re-runs in-process)
        keys = {key for kind in KIND_METRICS.values() for key in kind}
        assert {f.metric for f in FIGURES.values() if f.name != "fig9"} <= keys
        assert {"avg_fct", "p99_fct", "mice_avg_fct", "goodput_bps"} <= keys

    def test_unknown_string_key_rejected(self):
        spec = dataclasses.replace(_sweep(), metrics=("not_a_metric",))
        with pytest.raises(ValueError, match="unknown metric"):
            spec.validate()


class TestFormatSeriesTable:
    def test_empty_series_raises(self):
        with pytest.raises(ValueError, match="empty series"):
            render_table({"ecmp": []})

    def test_ragged_load_grids_raise(self):
        series = {
            "ecmp": [(0.2, 0.001), (0.4, 0.002)],
            "clove-ecn": [(0.2, 0.001)],
        }
        with pytest.raises(ValueError, match="ragged"):
            render_table(series)

    def test_mismatched_loads_raise(self):
        series = {
            "ecmp": [(0.2, 0.001), (0.4, 0.002)],
            "clove-ecn": [(0.2, 0.001), (0.5, 0.002)],
        }
        with pytest.raises(ValueError, match="ragged"):
            render_table(series)

    def test_well_formed_series_still_renders(self):
        series = {
            "ecmp": [(0.2, 0.001), (0.4, 0.002)],
            "clove-ecn": [(0.2, 0.001), (0.4, 0.0015)],
        }
        text = render_table(series, value_scale=1000.0)
        assert "ecmp" in text and "clove-ecn" in text


class TestSweepThroughRunner:
    def test_sweep_default_matches_explicit_serial_runner(self):
        a = run_suite(_sweep())
        b = run_suite(_sweep(), runner=RunnerConfig(jobs=1))
        assert results_equal(a, b)

    def test_average_over_seeds_through_runner(self, tmp_path):
        spec = _sweep(loads=(0.3,), seeds=(1, 2))
        plain = line_series(_ECMP_LINE, "load", "avg_fct", spec.expand(),
                            run_suite(spec))
        runner = RunnerConfig(cache_dir=str(tmp_path))
        cached = run_suite(spec, runner=runner)
        assert line_series(_ECMP_LINE, "load", "avg_fct", spec.expand(),
                           cached) == plain
        # a second run is served fully from cache
        again = run_suite(spec, runner=runner)
        assert again.meta["cached_points"] == 2
        assert results_equal(again, cached)

    def test_failed_point_yields_nan_with_warning(self):
        spec = _sweep(loads=(0.3,))
        (scenario,) = spec.expand()
        result = SuiteResult("sweep", spec.to_dict(), "", {
            scenario.scenario_id: ScenarioResult(
                scenario.scenario_id, errors={1: "worker crashed"}),
        })
        with pytest.warns(RuntimeWarning, match="failed"):
            series = line_series(_ECMP_LINE, "load", "avg_fct", [scenario],
                                 result)
        assert math.isnan(series["ecmp"][0][1])
