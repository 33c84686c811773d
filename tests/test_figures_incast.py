"""Structural tests for the figure rows and the incast harness.

The figure tests run the ``paper-figures`` scenarios cut to test size (a
tiny spec, not the bundle): they validate shapes, keys and plumbing, not
the paper's numbers (``repro figure all`` does that at realistic scale).
"""

import dataclasses
import math
from collections import Counter

import pytest

from repro.cli import main
from repro.harness.experiment import (
    SCHEMES,
    ExperimentConfig,
    assemble,
    default_topology,
    run_experiment,
)
from repro.harness.incast import run_incast
from repro.runner import JobSpec, RunnerConfig
from repro.suite import SuiteSpec, run_suite
from repro.suite.bundles import paper_figures
from repro.suite.figures import (
    FIGURES, SIM_SCHEMES, TESTBED_SCHEMES, capture_ratios, fig9_cdfs,
    fig9_percentiles, line_series, points, report, suite_for)
from repro.telemetry import NULL_TELEMETRY, Telemetry


def _tiny_spec() -> SuiteSpec:
    """``paper-figures`` with every run cut to a few jobs on a small fabric."""
    data = paper_figures().to_dict()
    for scenario in data["scenarios"]:
        base = scenario.setdefault("base", {})
        if scenario.get("kind") == "incast":
            base.update(n_requests=2, total_bytes=200_000)
            scenario["matrix"]["fanout"] = [1, 8]
        else:
            base.update(jobs_per_client=3, clients_per_leaf=2)
            if "load" in scenario["matrix"]:
                scenario["matrix"]["load"] = [0.3, 0.7]
    return SuiteSpec.from_dict({**data, "name": "tiny-figures"})


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    spec = _tiny_spec()
    cache = str(tmp_path_factory.mktemp("figure-cache"))
    result = run_suite(spec, runner=RunnerConfig(jobs=2, cache_dir=cache))
    assert result.failed_runs == 0
    return spec, result


def _series(run, name):
    spec, result = run
    fig = FIGURES[name]
    return line_series(fig.lines, fig.x, fig.metric, spec.expand(), result)


class TestFigureDrivers:
    def test_fig4b_structure(self, tiny_run):
        series = _series(tiny_run, "fig4b")
        assert set(series) == set(TESTBED_SCHEMES)
        for points_ in series.values():
            assert [l for l, _v in points_] == [0.3, 0.7]
            assert all(v > 0 for _l, v in points_)

    def test_fig5_kinds(self, tiny_run):
        for name in ("fig5a", "fig5c"):
            assert set(_series(tiny_run, name)) == set(TESTBED_SCHEMES)
        assert set(_series(tiny_run, "fig8b")) == set(SIM_SCHEMES)

    def test_fig5_invalid_kind(self, tiny_run, tmp_path, capsys):
        with pytest.raises(KeyError):
            report(["fig5d"], *tiny_run)
        # the CLI names every valid figure instead
        assert main(["figure", "fig5d"]) == 2
        err = capsys.readouterr().err
        assert "fig5a" in err and "ablation-ecn-relay" in err and "all" in err

    def test_fig6_has_four_variants(self, tiny_run):
        series = _series(tiny_run, "fig6")
        assert len(series) == 4
        assert any("best" in label for label in series)

    def test_fig9_cdfs(self, tiny_run):
        spec, _ = tiny_run
        cdfs = fig9_cdfs(spec.expand(), seed=1)
        assert set(cdfs) == {"ecmp", "clove-ecn", "conga"}
        for points_ in cdfs.values():
            assert points_[-1][1] == 1.0

    def test_fig9_percentiles(self):
        cdfs = {"x": [(0.001, 0.5), (0.002, 0.9), (0.010, 1.0)]}
        assert fig9_percentiles(cdfs, 0.99) == {"x": 0.010}
        assert fig9_percentiles(cdfs, 0.5) == {"x": 0.001}

    def test_figure_all_renders_every_figure_and_claim(self, tiny_run, tmp_path, capsys):
        spec, result = tiny_run
        artifact = tmp_path / "result.json"
        result.save(artifact)
        assert main(["figure", "all", "--result", str(artifact)]) == 0
        out = capsys.readouterr().out
        for name, fig in FIGURES.items():
            assert f"=== {name}: {fig.title} ===" in out
            for claim in fig.claims:
                row = next(line for line in out.splitlines() if claim.text in line)
                assert row.split()[-1] in ("holds", "fails", "n/a")
        # the grid has no 80% load: those claims are owed, not failed
        assert "Clove-ECN 7.5x better than ECMP at 80%" in out
        owed = [line for line in out.splitlines() if "at 80%" in line]
        assert owed and all(line.endswith("n/a") for line in owed)

    def test_a_result_without_the_figure_is_a_usage_error(self, tiny_run, tmp_path, capsys):
        spec, result = tiny_run
        artifact = tmp_path / "sym-only.json"
        dataclasses.replace(
            result, spec=suite_for(["fig4b"], spec).to_dict(),
            results={k: v for k, v in result.results.items() if k.startswith("sym/")},
        ).save(artifact)
        assert main(["figure", "fig4b", "--result", str(artifact)]) == 0
        capsys.readouterr()
        assert main(["figure", "fig4c", "--result", str(artifact)]) == 2
        assert "asym" in capsys.readouterr().err


def test_figures_read_only_their_scenarios():
    spec = paper_figures()
    assert [s.name for s in suite_for(["fig5b"], spec).scenarios] == ["asym"]
    assert [s.name for s in suite_for(["fig6"], spec).scenarios] == [
        "fig6-gap", "fig6-threshold"]
    assert suite_for(["fig9"], spec).scenarios == []   # runs in-process
    # figures share points instead of re-running them; the one repeat is
    # Clove-ECN's default config, which each of the four ablations sweeps
    repeats = Counter(job.fingerprint for job in spec.jobs())
    assert [n for n in repeats.values() if n > 1] == [4]


def test_bundle_points_are_the_configs_the_figure_drivers_ran():
    """A cache warmed before the figures became suite rows serves them: each
    point is the ExperimentConfig (or incast keywords) the per-figure
    drivers submitted, so its fingerprint is the same."""
    spec = paper_figures()
    scenarios = spec.expand()
    loads = (0.3, 0.5, 0.7)

    def bundle(*names):
        return {s.job(1).fingerprint for n in names for line in FIGURES[n].lines
                for s in points(line, scenarios)}

    def grid(schemes, **fields):
        return {JobSpec.experiment(ExperimentConfig(
            jobs_per_client=200, scheme=scheme, load=load, seed=1, **fields)).fingerprint
            for scheme in schemes for load in loads}

    assert bundle("fig4b") == grid(TESTBED_SCHEMES, asymmetric=False)
    assert bundle("fig4c", "fig5a", "fig5b", "fig5c") == grid(TESTBED_SCHEMES, asymmetric=True)
    assert bundle("fig8a") == grid(SIM_SCHEMES)
    assert bundle("fig8b") == grid(SIM_SCHEMES, asymmetric=True)
    fig6 = {JobSpec.experiment(ExperimentConfig(
        jobs_per_client=200, scheme="clove-ecn", asymmetric=True, load=load, seed=1,
        flowlet_gap_rtt=gap, topology=dataclasses.replace(
            default_topology(), ecn_threshold_packets=threshold))).fingerprint
        for gap, threshold in ((1.0, 20), (0.2, 20), (5.0, 20), (1.0, 40)) for load in loads}
    assert bundle("fig6") == fig6
    fig7 = {JobSpec.incast(scheme=scheme, fanout=fanout, seed=1, n_requests=8,
                           total_bytes=2_000_000).fingerprint
            for scheme in ("clove-ecn", "edge-flowlet", "mptcp") for fanout in (1, 2, 4, 8)}
    assert bundle("fig7") == fig7


class TestCaptureRatios:
    def test_ratio_math(self):
        series = {
            "ecmp": [(0.7, 10.0)],
            "conga": [(0.7, 2.0)],
            "clove-ecn": [(0.7, 3.6)],
            "edge-flowlet": [(0.7, 6.8)],
        }
        ratios = capture_ratios(series, 0.7)
        assert ratios["clove-ecn"] == pytest.approx(0.8)
        assert ratios["edge-flowlet"] == pytest.approx(0.4)

    def test_no_gain_yields_nan(self):
        series = {"ecmp": [(0.7, 1.0)], "conga": [(0.7, 2.0)], "clove-ecn": [(0.7, 1.5)]}
        ratios = capture_ratios(series, 0.7)
        assert math.isnan(ratios["clove-ecn"])

    def test_missing_load_raises(self):
        series = {"ecmp": [(0.7, 1.0)], "conga": [(0.7, 0.5)], "x": [(0.7, 0.7)]}
        with pytest.raises(KeyError):
            capture_ratios(series, 0.9)


class TestIncastHarness:
    def test_goodput_positive_and_bounded(self):
        goodput = run_incast("clove-ecn", fanout=2, n_requests=2, total_bytes=200_000)
        assert 0 < goodput <= 10e9  # cannot exceed the client's access link

    def test_fanout_one(self):
        goodput = run_incast("edge-flowlet", fanout=1, n_requests=2, total_bytes=200_000)
        assert goodput > 0

    def test_mptcp_scheme(self):
        goodput = run_incast("mptcp", fanout=2, n_requests=2, total_bytes=200_000)
        assert goodput > 0

    def test_invalid_fanout(self):
        with pytest.raises(ValueError):
            run_incast("clove-ecn", fanout=0, n_requests=1)
        with pytest.raises(ValueError):
            run_incast("clove-ecn", fanout=999, n_requests=1)

    def test_deterministic(self):
        a = run_incast("clove-ecn", fanout=2, n_requests=2, total_bytes=200_000)
        b = run_incast("clove-ecn", fanout=2, n_requests=2, total_bytes=200_000)
        assert a == pytest.approx(b)

    @staticmethod
    def _fig7_point(scheme, **kwargs):
        """(packets, events, goodput) of one fan-in-8 point."""
        stats = {}
        goodput = run_incast(scheme=scheme, seed=100, fanout=8, n_requests=6,
                             total_bytes=2_000_000, stats_out=stats, **kwargs)
        return stats["packets"], stats["events"], goodput

    def test_switch_schemes_are_not_ecmp_in_disguise(self):
        # CONGA and LetFlow balance inside the switches; on plain switches
        # their edge policy *is* ECMP and the three runs are identical.
        ecmp = self._fig7_point("ecmp")
        assert self._fig7_point("conga") != ecmp
        assert self._fig7_point("letflow") != ecmp

    def test_clove_int_echoes_carry_utilization(self):
        tel = Telemetry()
        self._fig7_point("clove-int", telemetry=tel)
        echoes = tel.events.events("clove.int_echo")
        assert any(echo.fields["util"] > 0 for echo in echoes)


def _switches(net):
    return {name: (type(switch), switch.int_capable)
            for name, switch in net.switches.items()}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_incast_and_experiment_get_the_same_fabric(scheme):
    # run_incast hands assemble exactly this config (plus its seed).
    incast = assemble(ExperimentConfig(scheme=scheme), NULL_TELEMETRY)
    experiment = run_experiment(ExperimentConfig(
        scheme=scheme, jobs_per_client=1, clients_per_leaf=1,
        connections_per_client=1))
    assert _switches(incast.net) == _switches(experiment.net)
