"""harness.report: table/chart rendering edge cases."""

from repro.harness.report import (
    render_bar_chart,
    render_cdf,
    render_table,
)


# ----------------------------------------------------------------------
# render_table
# ----------------------------------------------------------------------
def test_table_empty_series():
    assert render_table({}) == "(no data)"


def test_table_aligns_schemes_and_scales_values():
    series = {
        "ecmp": [(0.3, 0.001), (0.5, 0.002)],
        "clove-ecn": [(0.3, 0.0005), (0.5, 0.001)],
    }
    text = render_table(series)
    lines = text.splitlines()
    assert "ecmp" in lines[0] and "clove-ecn" in lines[0]
    assert "0.30" in lines[1] and "1.000" in lines[1]
    assert "(values in ms)" in lines[-1]


def test_table_widens_the_x_column_for_a_long_label():
    text = render_table({"clove-ecn": [(0.5, 0.001), (2.0, 0.002)]},
                        x_label="ecn_relay_interval_rtt", x_format="{:g}")
    header, first, second = text.splitlines()[:3]
    assert len(header) == len(first) == len(second)
    assert header.startswith("ecn_relay_interval_rtt ")


# ----------------------------------------------------------------------
# render_bar_chart
# ----------------------------------------------------------------------
def test_bar_chart_empty():
    assert render_bar_chart({}) == "(no data)"


def test_bar_chart_scales_to_peak():
    text = render_bar_chart({"a": 1.0, "b": 2.0}, width=10)
    lines = text.splitlines()
    assert lines[0].count("#") == 5
    assert lines[1].count("#") == 10


def test_bar_chart_single_point_and_zero_values():
    text = render_bar_chart({"only": 3.0}, width=8, unit="x")
    assert "#" * 8 in text and "3x" in text
    # All-zero input must not divide by zero; bars are simply empty.
    text = render_bar_chart({"a": 0.0, "b": 0.0})
    assert "(no data)" not in text
    assert "#" not in text


def test_bar_chart_tiny_values_still_visible():
    text = render_bar_chart({"big": 100.0, "small": 0.001}, width=50)
    small_line = [
        line for line in text.splitlines() if line.startswith("small")
    ][0]
    assert "#" in small_line  # minimum one mark, never invisible


# ----------------------------------------------------------------------
# render_cdf
# ----------------------------------------------------------------------
def test_cdf_empty_and_degenerate():
    assert render_cdf({}) == "(no data)"
    assert render_cdf({"s": [(0.0, 1.0)]}) == "(degenerate data)"


def test_cdf_single_point_series():
    text = render_cdf({"s": [(0.001, 1.0)]})
    assert "* = s" in text
    assert "1.000 ms" in text


def test_cdf_overlays_markers_per_scheme():
    cdfs = {
        "ecmp": [(0.001, 0.5), (0.002, 1.0)],
        "clove": [(0.0005, 0.5), (0.001, 1.0)],
    }
    text = render_cdf(cdfs)
    assert "* = ecmp" in text and "o = clove" in text
    assert "*" in text and "o" in text
    assert text.splitlines()[0].startswith("1.0 |")
    assert "0.0 +" in text
