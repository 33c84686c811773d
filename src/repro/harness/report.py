"""Plain-text rendering of experiment results: tables and ASCII charts.

``repro figure``, ``repro sweep`` and the examples print their series
through this module so the reproduction report is readable without any
plotting dependency.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

Series = Dict[str, List[Tuple[float, float]]]


def render_table(
    series: Series,
    x_label: str = "load",
    value_scale: float = 1000.0,
    unit: str = "ms",
    x_format: str = "{:.2f}",
) -> str:
    """Render {name: [(x, y), ...]} as an aligned text table.

    Raises :class:`ValueError` when a series has no points or the series do
    not share one x grid (a ragged table would silently misalign rows).
    """
    if not series:
        return "(no data)"
    names = list(series)
    empty = [name for name in names if not series[name]]
    if empty:
        raise ValueError(f"empty series: {empty} have no points")
    xs = [x for x, _y in series[names[0]]]
    for name in names[1:]:
        other = [x for x, _y in series[name]]
        if other != xs:
            raise ValueError(
                f"ragged x grids: {name!r} has {other} but {names[0]!r} "
                f"has {xs}; every series must share one grid"
            )
    width = max(12, max(len(n) for n in names) + 2)
    x_width = max(8, len(x_label))
    lines = [f"{x_label:>{x_width}} " + " ".join(f"{n:>{width}}" for n in names)]
    for i, x in enumerate(xs):
        cells = []
        for name in names:
            value = series[name][i][1] * value_scale
            cells.append(f"{value:>{width}.3f}")
        lines.append(f"{x_format.format(x):>{x_width}} " + " ".join(cells))
    lines.append(f"(values in {unit})")
    return "\n".join(lines)


def render_bar_chart(
    values: Dict[str, float],
    width: int = 50,
    unit: str = "",
) -> str:
    """Horizontal ASCII bars, scaled to the largest value."""
    if not values:
        return "(no data)"
    peak = max(values.values())
    label_width = max(len(k) for k in values)
    lines = []
    for name, value in values.items():
        bar = "#" * max(1, int(width * value / peak)) if peak > 0 else ""
        lines.append(f"{name:<{label_width}} | {bar} {value:.3g}{unit}")
    return "\n".join(lines)


def render_cdf(
    cdfs: Dict[str, List[Tuple[float, float]]],
    height: int = 12,
    width: int = 60,
    value_scale: float = 1000.0,
    unit: str = "ms",
) -> str:
    """Overlayed ASCII CDF plot; each scheme gets a marker character."""
    if not cdfs:
        return "(no data)"
    markers = "*o+x@%"
    x_max = max(fct for points in cdfs.values() for fct, _f in points)
    if x_max <= 0:
        return "(degenerate data)"
    grid = [[" "] * width for _ in range(height)]
    legend = []
    for index, (name, points) in enumerate(cdfs.items()):
        marker = markers[index % len(markers)]
        legend.append(f"{marker} = {name}")
        for fct, frac in points:
            col = min(width - 1, int(fct / x_max * (width - 1)))
            row = min(height - 1, int((1 - frac) * (height - 1)))
            grid[row][col] = marker
    lines = ["1.0 |" + "".join(grid[0])]
    for row in grid[1:-1]:
        lines.append("    |" + "".join(row))
    lines.append("0.0 +" + "-" * width)
    lines.append(f"     0 ... {x_max * value_scale:.3f} {unit}")
    lines.append("     " + "   ".join(legend))
    return "\n".join(lines)
