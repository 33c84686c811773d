"""Tests for the extension modules: extra workloads, the text renderers
(their edge cases are in ``test_report.py``) and the CLI."""

import random

from repro.harness.report import render_bar_chart, render_cdf, render_table
from repro.workloads.distributions import (
    data_mining_distribution,
    enterprise_distribution,
)


class TestExtraDistributions:
    def test_data_mining_heavier_tail_than_websearch(self):
        from repro.workloads.distributions import web_search_distribution
        rng = random.Random(1)
        dm = data_mining_distribution()
        ws = web_search_distribution()
        assert dm.analytic_mean() > ws.analytic_mean()

    def test_data_mining_mice_majority(self):
        dist = data_mining_distribution()
        rng = random.Random(2)
        samples = [dist.sample(rng) for _ in range(5000)]
        assert sum(1 for s in samples if s <= 10_000) / len(samples) > 0.6

    def test_enterprise_bounded(self):
        dist = enterprise_distribution()
        rng = random.Random(3)
        assert all(dist.sample(rng) <= 30_000_000 for _ in range(2000))


class TestReport:
    SERIES = {
        "ecmp": [(0.5, 0.002), (0.7, 0.010)],
        "clove-ecn": [(0.5, 0.002), (0.7, 0.002)],
    }

    def test_render_table_contains_values(self):
        text = render_table(self.SERIES)
        assert "ecmp" in text and "clove-ecn" in text
        assert "10.000" in text  # 0.010s -> 10ms

    def test_render_table_empty(self):
        assert render_table({}) == "(no data)"

    def test_render_bar_chart(self):
        text = render_bar_chart({"a": 1.0, "b": 2.0})
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[1].count("#") > lines[0].count("#")

    def test_render_cdf_shape(self):
        cdfs = {"x": [(0.001, 0.5), (0.002, 1.0)]}
        text = render_cdf(cdfs)
        assert "1.0 |" in text and "0.0 +" in text
        assert "* = x" in text


class TestCli:
    def test_schemes_command(self, capsys):
        from repro.cli import main
        from repro.harness.schemes import SCHEMES
        assert main(["schemes"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(SCHEMES) == 9
        assert [line.split()[0] for line in lines] == list(SCHEMES)
        for line, row in zip(lines, SCHEMES.values()):
            assert line.endswith(row.summary)

    def test_run_command(self, capsys):
        from repro.cli import main
        code = main(["run", "ecmp", "--load", "0.3", "--jobs-per-client", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "avg FCT" in out

    def test_sweep_command(self, capsys):
        from repro.cli import main
        code = main([
            "sweep", "--schemes", "ecmp", "--loads", "0.3", "--jobs-per-client", "3",
        ])
        assert code == 0
        assert "ecmp" in capsys.readouterr().out

    def test_sweep_unknown_scheme(self):
        from repro.cli import main
        assert main(["sweep", "--schemes", "bogus", "--jobs-per-client", "3"]) == 2

    def test_figure_unknown_name(self):
        from repro.cli import main
        assert main(["figure", "fig99"]) == 2
