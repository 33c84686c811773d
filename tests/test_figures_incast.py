"""Structural tests for the figure drivers and the incast harness.

These use tiny quality settings: they validate shapes, keys and plumbing,
not the paper's numbers (the benchmarks do that at realistic scale).
"""

import pytest

from repro.harness.figures import (
    FigureQuality,
    SIM_SCHEMES,
    TESTBED_SCHEMES,
    capture_ratios,
    fig4b,
    fig5,
    fig6,
    fig9,
    fig9_percentiles,
)
from repro.harness.experiment import (
    SCHEMES,
    ExperimentConfig,
    assemble,
    run_experiment,
)
from repro.harness.incast import run_incast
from repro.telemetry import NULL_TELEMETRY, Telemetry

TINY = FigureQuality(loads=(0.3,), seeds=(1,), jobs_per_client=4)


class TestFigureDrivers:
    def test_fig4b_structure(self):
        series = fig4b(TINY)
        assert set(series) == set(TESTBED_SCHEMES)
        for points in series.values():
            assert [l for l, _v in points] == [0.3]
            assert all(v > 0 for _l, v in points)

    def test_fig5_kinds(self):
        for kind in ("mice", "p99"):
            series = fig5(kind, TINY)
            assert set(series) == set(TESTBED_SCHEMES)

    def test_fig5_invalid_kind(self):
        with pytest.raises(ValueError):
            fig5("nope", TINY)

    def test_fig6_has_four_variants(self):
        series = fig6(TINY)
        assert len(series) == 4
        assert any("best" in label for label in series)

    def test_fig9_cdfs(self):
        cdfs = fig9(load=0.3, seed=1, jobs_per_client=4)
        assert set(cdfs) == {"ecmp", "clove-ecn", "conga"}
        for points in cdfs.values():
            assert points[-1][1] == 1.0

    def test_fig9_percentiles(self):
        cdfs = {"x": [(0.001, 0.5), (0.002, 0.9), (0.010, 1.0)]}
        assert fig9_percentiles(cdfs, 0.99) == {"x": 0.010}
        assert fig9_percentiles(cdfs, 0.5) == {"x": 0.001}


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
        import math
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
