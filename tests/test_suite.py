"""repro.suite: spec expansion, paired statistics, baselines and the CLI.

The simulation-backed tests share one module-scoped cache directory so
each distinct (config, seed) point runs at most once per session.
"""

import json
import math

import pytest

from repro.chaos.plan import FaultPlan
from repro.cli import main
from repro.runner import RunnerConfig
from repro.suite import (
    ScenarioSpec,
    SuiteSpec,
    baselines_from_result,
    bootstrap_mean_ci,
    build_config,
    bundle_names,
    bundled_suite,
    check_result,
    cliffs_delta,
    compare_by_seed,
    compare_paired,
    diff_results,
    iter_bundles,
    load_result,
    load_suite,
    mann_whitney_u,
    render_markdown,
    report_dict,
    results_equal,
    run_suite,
    sign_test,
    worsening,
)
from repro.suite.execute import ScenarioResult, SuiteResult


# ----------------------------------------------------------------------
# Spec expansion
# ----------------------------------------------------------------------
def _micro_scenario(**overrides):
    kwargs = dict(
        name="micro",
        base={
            "jobs_per_client": 4,
            "clients_per_leaf": 2,
            "connections_per_client": 1,
            "load": 0.3,
        },
        matrix={"scheme": ["ecmp", "clove-ecn"]},
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


def _micro_suite(**overrides):
    kwargs = dict(
        name="micro",
        seeds=(1, 2),
        metrics=("avg_fct", "p99_fct"),
        scenarios=[_micro_scenario()],
    )
    kwargs.update(overrides)
    return SuiteSpec(**kwargs)


def test_expand_takes_cross_product_in_grid_order():
    spec = ScenarioSpec(
        name="grid",
        matrix={"scheme": ["ecmp", "clove-ecn"], "load": [0.3, 0.5]},
    )
    ids = [s.scenario_id for s in spec.expand()]
    assert ids == [
        "grid/load=0.3,scheme=ecmp",
        "grid/load=0.5,scheme=ecmp",
        "grid/load=0.3,scheme=clove-ecn",
        "grid/load=0.5,scheme=clove-ecn",
    ]


def test_scenario_ids_ignore_matrix_key_order():
    # Artifact serialization sorts dict keys, so ids must be invariant
    # under matrix insertion order or reports on a loaded artifact
    # silently fail to pair scenarios with a freshly expanded spec.
    a = ScenarioSpec(
        name="grid",
        matrix={"scheme": ["ecmp"], "load": [0.3]},
    )
    b = ScenarioSpec(
        name="grid",
        matrix={"load": [0.3], "scheme": ["ecmp"]},
    )
    assert (
        [s.scenario_id for s in a.expand()]
        == [s.scenario_id for s in b.expand()]
        == ["grid/load=0.3,scheme=ecmp"]
    )


def test_exclude_drops_matching_combo_and_pin_stays_out_of_id():
    spec = ScenarioSpec(
        name="grid",
        matrix={"scheme": ["ecmp", "clove-ecn"], "load": [0.3, 0.5]},
        exclude=[{"scheme": "ecmp", "load": 0.5}],
        pin={"jobs_per_client": 4},
    )
    scenarios = spec.expand()
    ids = [s.scenario_id for s in scenarios]
    assert "grid/load=0.5,scheme=ecmp" not in ids
    assert len(ids) == 3
    assert all(s.config.jobs_per_client == 4 for s in scenarios)
    assert all("jobs_per_client" not in i for i in ids)


def test_matrixless_scenario_expands_to_one_point():
    spec = ScenarioSpec(name="solo", base={"scheme": "ecmp"})
    scenarios = spec.expand()
    assert [s.scenario_id for s in scenarios] == ["solo"]


def test_all_combinations_excluded_is_an_error():
    spec = ScenarioSpec(
        name="void",
        matrix={"scheme": ["ecmp"]},
        exclude=[{"scheme": "ecmp"}],
    )
    with pytest.raises(ValueError, match="every combination was excluded"):
        spec.expand()


def test_unknown_axis_rejected_with_valid_list():
    with pytest.raises(ValueError, match="unknown axis.*valid"):
        ScenarioSpec(name="bad", matrix={"lod": [0.3]}).expand()


def test_seed_is_not_an_axis():
    with pytest.raises(ValueError, match="'seed' is not an axis"):
        ScenarioSpec(name="bad", base={"seed": 7}).expand()


def test_exclude_rule_must_reference_known_keys():
    spec = ScenarioSpec(
        name="bad",
        matrix={"scheme": ["ecmp"]},
        exclude=[{"load": 0.9}],
    )
    with pytest.raises(ValueError, match="exclude rule references"):
        spec.expand()


def test_unknown_scheme_and_workload_rejected():
    with pytest.raises(ValueError, match="unknown scheme.*valid schemes"):
        build_config({"scheme": "clove-9000"})
    with pytest.raises(ValueError, match="unknown workload.*valid workloads"):
        build_config({"workload": "cat-videos"})


def test_chaos_axis_resolves_preset_and_plan_dict():
    cfg = build_config({"chaos": "single-cable"})
    assert isinstance(cfg.chaos, FaultPlan)
    plan = cfg.chaos.to_dict()
    cfg2 = build_config({"chaos": plan})
    assert cfg2.chaos.to_dict() == plan
    with pytest.raises(ValueError, match="unknown chaos preset"):
        build_config({"chaos": "earthquake"})


def test_topology_axis_resolves_preset_and_field_dict():
    cfg = build_config({"topology": "tiny"})
    assert cfg.topology.hosts_per_leaf == 2
    cfg2 = build_config({"topology": {"hosts_per_leaf": 3}})
    assert cfg2.topology.hosts_per_leaf == 3
    with pytest.raises(ValueError, match="unknown topology"):
        build_config({"topology": "dragonfly"})
    with pytest.raises(ValueError, match="unknown topology field"):
        build_config({"topology": {"hosts_per_rack": 3}})


def test_suite_validates_metrics_seeds_and_duplicates():
    with pytest.raises(ValueError, match="unknown metric"):
        _micro_suite(metrics=("avg_fct", "frobnication")).validate()
    with pytest.raises(ValueError, match="duplicate seeds"):
        _micro_suite(seeds=(1, 1)).validate()
    with pytest.raises(ValueError, match="duplicate scenario names"):
        _micro_suite(
            scenarios=[_micro_scenario(), _micro_scenario()]
        ).validate()
    with pytest.raises(ValueError, match="alpha"):
        _micro_suite(alpha=1.5).validate()


def test_suite_dict_round_trip():
    spec = _micro_suite()
    clone = SuiteSpec.from_dict(spec.to_dict())
    assert clone.to_dict() == spec.to_dict()


def test_from_dict_rejects_unknown_keys():
    data = _micro_suite().to_dict()
    data["tolerances"] = 5
    with pytest.raises(ValueError, match="unknown key"):
        SuiteSpec.from_dict(data)


def test_load_suite_json_and_toml(tmp_path):
    as_json = tmp_path / "suite.json"
    as_json.write_text(json.dumps(_micro_suite().to_dict()))
    assert load_suite(as_json).name == "micro"

    as_toml = tmp_path / "suite.toml"
    as_toml.write_text(
        'name = "t"\n'
        "seeds = [1, 2]\n"
        'metrics = ["avg_fct"]\n'
        "[[scenarios]]\n"
        'name = "s"\n'
        "[scenarios.matrix]\n"
        'scheme = ["ecmp", "clove-ecn"]\n'
    )
    spec = load_suite(as_toml)
    assert spec.name == "t"
    assert len(spec.expand()) == 2

    broken = tmp_path / "broken.json"
    broken.write_text("{ nope")
    with pytest.raises(ValueError, match="invalid JSON"):
        load_suite(broken)


def test_bundled_suites_expand_and_unknown_name_lists_valid():
    for name, spec in iter_bundles():
        scenarios = spec.expand()
        assert scenarios, name
        assert name == spec.name
    assert set(bundle_names()) == {
        "chaos", "control-plane", "health", "paper-figures", "paper-smoke",
        "workloads",
    }
    with pytest.raises(KeyError, match="bundled suites"):
        bundled_suite("paper-jumbo")


def test_paper_figures_holds_an_incast_scenario():
    spec = bundled_suite("paper-figures")
    data = spec.to_dict()
    kinds = {s["name"]: s.get("kind") for s in data["scenarios"]}
    # the default kind is omitted, so experiment-only digests never moved
    assert kinds["incast"] == "incast" and kinds["asym"] is None
    assert SuiteSpec.from_dict(data).to_dict() == data
    incast = [s for s in spec.expand() if s.kind == "incast"]
    assert len(incast) == 3 * 4
    assert all(s.config is None for s in incast)
    assert incast[0].job(1).kind == "incast"


def _incast_scenario(**overrides):
    kwargs = dict(name="fan-in", kind="incast",
                  base={"n_requests": 2, "total_bytes": 100_000},
                  matrix={"scheme": ["ecmp", "clove-ecn"], "fanout": [2]})
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


def test_incast_scenario_validates_axes_scheme_and_metric():
    with pytest.raises(ValueError, match="unknown axis.*valid: .*fanout"):
        _incast_scenario(base={"load": 0.5}).validate()
    with pytest.raises(ValueError, match="'seed' is not an axis"):
        _incast_scenario(base={"seed": 3}).validate()
    with pytest.raises(ValueError, match="unknown scheme"):
        _incast_scenario(matrix={"scheme": ["bogus"]}).expand()
    with pytest.raises(ValueError, match="unknown kind"):
        _incast_scenario(kind="incest").validate()
    # metrics are validated per kind: FCTs only where an experiment runs
    with pytest.raises(ValueError, match="unknown metric 'avg_fct'"):
        SuiteSpec("s", [_incast_scenario()], metrics=("avg_fct",)).validate()
    with pytest.raises(ValueError, match="unknown metric 'goodput_bps'"):
        _micro_suite(metrics=("goodput_bps",)).validate()
    SuiteSpec("s", [_incast_scenario(), _micro_scenario()],
              metrics=("avg_fct", "goodput_bps")).validate()


def test_goodput_drop_on_an_incast_scenario_is_a_regression():
    spec = SuiteSpec("mixed", [_incast_scenario(), _micro_scenario()],
                     seeds=(1, 2), metrics=("avg_fct", "goodput_bps"))

    def run(goodput_scale):
        # each kind records only its own metric, as the runner's payloads do
        results = {s.scenario_id: ScenarioResult(s.scenario_id, {1: "a", 2: "b"}, {
            "goodput_bps": {1: 9e9 * goodput_scale, 2: 8e9 * goodput_scale},
        } if s.kind == "incast" else {"avg_fct": {1: 1e-3, 2: 2e-3}})
            for s in spec.expand()}
        return SuiteResult("mixed", spec.to_dict(), "d", results)

    baselines = baselines_from_result(spec, run(1.0))
    report = check_result(spec, run(0.5), baselines)
    # a halved goodput is a regression, never an improvement; incast
    # scenarios are not gated on FCTs (nor experiments on goodput)
    assert {(f.scenario_id.split("/")[0], f.metric, f.kind)
            for f in report.findings} == {
        ("fan-in", "goodput_bps", "regression")}
    assert report.checked == 2 + 2
    assert diff_results(run(1.0), run(0.5)).regressions


# ----------------------------------------------------------------------
# Paired statistics
# ----------------------------------------------------------------------
def test_bootstrap_ci_empty_single_and_deterministic():
    lo, hi = bootstrap_mean_ci([])
    assert math.isnan(lo) and math.isnan(hi)
    assert bootstrap_mean_ci([3.5]) == (3.5, 3.5)
    sample = [1.0, 2.0, 3.0, 4.0, 5.0]
    first = bootstrap_mean_ci(sample)
    assert first == bootstrap_mean_ci(sample)
    assert first[0] <= 3.0 <= first[1]


def test_sign_test_exact_values():
    assert sign_test([]) == 1.0
    assert sign_test([0.0, 0.0]) == 1.0  # ties dropped
    # five positives: 2 * P(X <= 0 | Bin(5, .5)) = 2/32
    assert sign_test([1.0, 2.0, 0.5, 3.0, 1.5]) == pytest.approx(2 / 32)
    assert sign_test([1.0, -1.0]) == 1.0


def test_mann_whitney_separated_vs_identical():
    a = [1.0, 1.1, 1.2, 0.9, 1.05, 0.95]
    b = [2.0, 2.1, 2.2, 1.9, 2.05, 1.95]
    assert mann_whitney_u(a, b) < 0.05
    assert mann_whitney_u(a, a) > 0.5
    assert mann_whitney_u([], a) == 1.0


def test_cliffs_delta_bounds():
    assert cliffs_delta([2.0, 3.0], [0.0, 1.0]) == 1.0
    assert cliffs_delta([0.0, 1.0], [2.0, 3.0]) == -1.0
    assert cliffs_delta([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert math.isnan(cliffs_delta([], [1.0]))


def test_compare_paired_directions_and_nan_pairs():
    cmp_ = compare_paired([1.0, 1.0, 1.0], [2.0, 2.0, 2.0], seeds=(3, 1, 2))
    assert cmp_.n == 3
    assert cmp_.diff == pytest.approx(1.0)
    assert cmp_.rel_diff == pytest.approx(1.0)
    assert cmp_.consistent
    assert cmp_.seeds == (1, 2, 3)
    assert cmp_.significant()  # consistent + CI excludes zero

    nan = float("nan")
    cmp_ = compare_paired([1.0, nan, 3.0], [2.0, 5.0, nan])
    assert cmp_.n == 1

    with pytest.raises(ValueError, match="equal length"):
        compare_paired([1.0], [1.0, 2.0])


def test_compare_by_seed_pairs_common_seeds_only():
    a = {1: 1.0, 2: 2.0, 3: 3.0}
    b = {2: 2.5, 3: 3.5, 4: 9.0}
    cmp_ = compare_by_seed(a, b)
    assert cmp_.seeds == (2, 3)
    assert cmp_.diff == pytest.approx(0.5)
    assert compare_by_seed({1: 1.0}, {2: 2.0}) is None


def test_insignificant_when_inconsistent_and_small():
    cmp_ = compare_paired([1.0, 2.0, 3.0], [1.1, 1.9, 3.1])
    assert not cmp_.significant()


def test_worsening_flips_sign_for_higher_is_better_metrics():
    cmp_ = compare_paired([1.0, 1.0], [0.8, 0.8])
    assert worsening("avg_fct", cmp_) == pytest.approx(-0.2)
    assert worsening("completion_rate", cmp_) == pytest.approx(0.2)


# ----------------------------------------------------------------------
# Execution, baselines and the gate (simulation-backed, cached)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def suite_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("suite-cache"))


@pytest.fixture(scope="module")
def micro_run(suite_cache):
    spec = _micro_suite()
    result = run_suite(
        spec, runner=RunnerConfig(jobs=0, cache_dir=suite_cache, progress=False)
    )
    return spec, result


def test_run_suite_collects_per_seed_payloads(micro_run):
    spec, result = micro_run
    assert result.suite == "micro"
    assert result.failed_runs == 0
    assert set(result.results) == {
        "micro/scheme=ecmp", "micro/scheme=clove-ecn",
    }
    for record in result.results.values():
        assert set(record.fingerprints) == {1, 2}
        assert set(record.values("avg_fct")) == {1, 2}
        # the full standard payload is recorded, not just gated metrics
        assert "completion_rate" in record.metrics


def test_suite_results_bit_identical_serial_vs_parallel(micro_run, suite_cache):
    spec, serial = micro_run
    parallel = run_suite(
        spec, runner=RunnerConfig(jobs=2, cache_dir=suite_cache, progress=False)
    )
    assert results_equal(serial, parallel)
    # meta (wall time etc.) is excluded from the identity statement
    assert serial.meta != {} and parallel.meta != {}


def test_busy_share_is_the_share_of_worker_time_spent_in_jobs(
        micro_run, suite_cache):
    _, executed = micro_run     # ran every point, on one worker
    assert 0 < executed.meta["busy_share"] <= 1
    assert f"busy {executed.meta['busy_share']:.2f}" in executed.run_summary()
    cached = run_suite(_micro_suite(), runner=RunnerConfig(
        jobs=2, cache_dir=suite_cache, progress=False))
    assert cached.meta["busy_share"] is None     # no job ran
    assert "busy" not in render_markdown(cached)


def test_result_artifact_round_trips(micro_run, tmp_path):
    _, result = micro_run
    path = tmp_path / "result.json"
    result.save(path)
    loaded = load_result(path)
    assert results_equal(result, loaded)
    with pytest.raises(ValueError, match="not a suite result"):
        SuiteResult.from_dict({"schema": 999})


def test_record_then_check_passes_clean(micro_run):
    spec, result = micro_run
    baselines = baselines_from_result(spec, result)
    report = check_result(spec, result, baselines)
    assert report.ok
    assert report.checked == len(result.results) * len(spec.metrics)
    assert not any(f.kind == "drift" for f in report.findings)
    assert "OK" in report.summary()


def test_check_flags_regression_with_named_scenario_and_metric(micro_run):
    spec, result = micro_run
    baselines = baselines_from_result(spec, result)
    # Halve the recorded avg_fct baselines: the (unchanged) current run now
    # sits 100% above the golden reference on every seed.
    target = "micro/scheme=clove-ecn"
    for seed in baselines["scenarios"][target]["metrics"]["avg_fct"]:
        baselines["scenarios"][target]["metrics"]["avg_fct"][seed] *= 0.5
    report = check_result(spec, result, baselines)
    assert not report.ok
    assert [(f.scenario_id, f.metric) for f in report.regressions] == [
        (target, "avg_fct")
    ]
    summary = report.summary()
    assert "REGRESSED" in summary and target in summary


def test_check_reports_missing_baseline_and_drift(micro_run):
    spec, result = micro_run
    baselines = baselines_from_result(spec, result)
    del baselines["scenarios"]["micro/scheme=ecmp"]
    baselines["spec_digest"] = "stale"
    report = check_result(spec, result, baselines)
    kinds = {f.kind for f in report.findings}
    assert "missing-baseline" in kinds and "drift" in kinds
    assert not report.ok


def test_improvement_is_informational_not_failing(micro_run):
    spec, result = micro_run
    baselines = baselines_from_result(spec, result)
    for record in baselines["scenarios"].values():
        for seed in record["metrics"]["avg_fct"]:
            record["metrics"]["avg_fct"][seed] *= 2.0
    report = check_result(spec, result, baselines)
    assert report.ok
    assert any(f.kind == "improvement" for f in report.findings)


def test_diff_results_identical_artifacts_pass(micro_run):
    spec, result = micro_run
    report = diff_results(result, result)
    assert report.ok and report.checked > 0


def test_report_renders_markdown_and_comparisons(micro_run):
    _, result = micro_run
    text = render_markdown(result)
    assert "# Suite report: micro" in text
    assert "micro/scheme=clove-ecn" in text
    assert "Scheme comparisons" in text
    data = report_dict(result)
    # One candidate scheme (clove-ecn vs the ecmp baseline) x two gated
    # metrics: every group must pair, none silently dropped.
    assert len(data["comparisons"]) == 2
    assert {c["metric"] for c in data["comparisons"]} == {
        "avg_fct", "p99_fct",
    }


# ----------------------------------------------------------------------
# CLI: record / check round trip and the seeded-regression gate
# ----------------------------------------------------------------------
def _gate_suite_dict(degraded: bool) -> dict:
    """An asymmetric clove scenario small enough for a test, loaded enough
    that freezing flowlet re-routing (a huge gap) visibly worsens FCT."""
    spec = {
        "name": "gate",
        "seeds": [1, 2],
        "metrics": ["avg_fct"],
        "tolerance_pct": 5.0,
        "baseline_scheme": None,
        "scenarios": [{
            "name": "asym",
            "base": {
                "scheme": "clove-ecn",
                "asymmetric": True,
                "load": 0.7,
                "jobs_per_client": 6,
            },
        }],
    }
    if degraded:
        spec["scenarios"][0]["pin"] = {"flowlet_gap_rtt": 1e6}
    return spec


def test_cli_gate_catches_degraded_scheme_parameter(
    tmp_path, suite_cache, capsys
):
    good = tmp_path / "gate.json"
    good.write_text(json.dumps(_gate_suite_dict(degraded=False)))
    degraded = tmp_path / "gate-degraded.json"
    degraded.write_text(json.dumps(_gate_suite_dict(degraded=True)))
    baselines = tmp_path / "gate.baseline.json"

    code = main([
        "suite", "record", "--spec", str(good),
        "--baselines", str(baselines),
        "--cache-dir", suite_cache,
    ])
    assert code == 0
    assert baselines.exists()
    capsys.readouterr()

    # Unchanged config: the gate passes.
    code = main([
        "suite", "check", "--spec", str(good),
        "--baselines", str(baselines),
        "--cache-dir", suite_cache,
    ])
    assert code == 0
    assert "OK" in capsys.readouterr().out

    # Deliberately degraded scheme parameter: nonzero exit, and the
    # summary names the failing scenario and metric.
    code = main([
        "suite", "check", "--spec", str(degraded),
        "--baselines", str(baselines),
        "--cache-dir", suite_cache,
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert "REGRESSED" in out
    assert "asym" in out and "avg_fct" in out


def test_cli_run_writes_artifact_and_report(tmp_path, suite_cache, capsys):
    spec_file = tmp_path / "micro.json"
    spec_file.write_text(json.dumps(_micro_suite().to_dict()))
    out_file = tmp_path / "result.json"
    report_file = tmp_path / "report.md"
    code = main([
        "suite", "run", "--spec", str(spec_file),
        "--out", str(out_file), "--report-out", str(report_file),
        "--cache-dir", suite_cache,
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert "# Suite report: micro" in captured.out
    assert "suite micro: wall " in captured.err
    assert load_result(out_file).suite == "micro"
    assert "# Suite report: micro" in report_file.read_text()

    code = main(["suite", "diff", str(out_file), str(out_file)])
    assert code == 0


def test_cli_list_and_show(capsys):
    assert main(["suite", "list"]) == 0
    out = capsys.readouterr().out
    assert "paper-smoke" in out and "paper-figures" in out
    assert main(["suite", "show", "paper-smoke"]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown["name"] == "paper-smoke"


def test_cli_usage_errors_exit_2(tmp_path, capsys):
    assert main(["suite", "show", "paper-jumbo"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.strip()

    assert main([
        "suite", "check", "--spec",
        str(tmp_path / "absent.json"),
    ]) == 2
    capsys.readouterr()

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x"}))  # no scenarios
    assert main(["suite", "run", "--spec", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err


def test_committed_paper_smoke_baselines_match_the_bundle():
    """The committed baseline file must stay in sync with the bundled
    paper-smoke suite (same scenarios, seeds and digest layout)."""
    from pathlib import Path

    from repro.suite.baseline import load_baselines
    from repro.suite.execute import spec_digest

    spec = bundled_suite("paper-smoke")
    committed = (
        Path(__file__).resolve().parents[1]
        / "suites" / "paper-smoke.baseline.json"
    )
    data = load_baselines(committed)
    assert data["suite"] == "paper-smoke"
    assert data["seeds"] == list(spec.seeds)
    assert set(data["scenarios"]) == {
        s.scenario_id for s in spec.expand()
    }
    assert data["spec_digest"] == spec_digest(spec)
