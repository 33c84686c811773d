"""The paper's figures as table rows over the ``paper-figures`` suite.

A :class:`Figure` names its lines (label, scenario, axis values picking the
points), x axis, payload metric and :class:`Claim` s: a ratio of two points
or a line's share of the ECMP->CONGA gain, held against a bound (holds /
fails / n/a when the grid lacks a point).  A point is the across-seed mean
of a :class:`~repro.suite.execute.SuiteResult`; Fig 9's CDF needs per-flow
FCTs, so :func:`fig9_cdfs` re-runs it in-process.
"""

import dataclasses
import math
import warnings
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.harness.report import render_cdf, render_table
from repro.suite.spec import KIND_METRICS, Scenario, SuiteSpec

Series = Dict[str, List[Tuple[float, float]]]
Line = Tuple[str, str, Tuple[Tuple[str, Any], ...]]

TESTBED_SCHEMES = ("ecmp", "edge-flowlet", "clove-ecn", "mptcp", "presto")
SIM_SCHEMES = ("ecmp", "edge-flowlet", "clove-ecn", "clove-int", "conga")


class Claim(NamedTuple):
    """A ratio of two figure points, or a line's ECMP->CONGA gain share."""

    text: str
    x: float
    line: str
    ref: Optional[str] = None
    at_least: float = -math.inf
    at_most: float = math.inf
    ref_x: Optional[float] = None
    ref_figure: Optional[str] = None


class Figure(NamedTuple):
    """Lines (label, scenario, axis values picking points), axes, claims."""

    name: str
    title: str
    lines: Tuple[Line, ...]
    x: str
    metric: str
    claims: Tuple[Claim, ...] = ()


def _by_scheme(scenario: str, schemes: Sequence[str], **fixed) -> Tuple[Line, ...]:
    return tuple((s, scenario, (("scheme", s), *fixed.items())) for s in schemes)


def _knob(name: str, title: str, x: str, *claims: Claim) -> Figure:
    return Figure(name, title, (("clove-ecn", name, ()),), x, "avg_fct", claims)


FIGURES: Dict[str, Figure] = {f.name: f for f in (
    Figure("fig4b", "symmetric testbed, avg FCT", _by_scheme("sym", TESTBED_SCHEMES), "load", "avg_fct", (
        Claim("MPTCP best on the clean fabric: ECMP/MPTCP at 70%", 0.7, "ecmp", "mptcp", at_least=1.0),
        Claim("Clove-ECN 2.5x better than ECMP at 80%", 0.8, "ecmp", "clove-ecn", at_least=2.5))),
    Figure("fig4c", "asymmetric testbed (S2-L2 cable down), avg FCT", _by_scheme("asym", TESTBED_SCHEMES), "load", "avg_fct", (
        Claim("Clove-ECN competitive with ECMP: Clove-ECN/ECMP at 70%", 0.7, "clove-ecn", "ecmp", at_most=1.5),
        Claim("Clove-ECN 7.5x better than ECMP at 80%", 0.8, "ecmp", "clove-ecn", at_least=7.5),
        Claim("Presto 3.8x behind Clove-ECN at 70%", 0.7, "presto", "clove-ecn", at_least=3.8))),
    Figure("fig5a", "asymmetric, avg FCT of <100KB flows", _by_scheme("asym", TESTBED_SCHEMES), "load", "mice_avg_fct", (
        Claim("Edge-Flowlet 3.7x better than ECMP for mice at 70%", 0.7, "ecmp", "edge-flowlet", at_least=3.7),)),
    Figure("fig5b", "asymmetric, avg FCT of >10MB flows", _by_scheme("asym", TESTBED_SCHEMES), "load", "elephant_avg_fct", (
        Claim("Edge-Flowlet 4.1x better than ECMP for elephants at 70%", 0.7, "ecmp", "edge-flowlet", at_least=4.1),
        Claim("Elephants slower than mice: Clove-ECN 5b/5a at 70%", 0.7, "clove-ecn", "clove-ecn", 1.0, ref_figure="fig5a"))),
    Figure("fig5c", "asymmetric, 99th-percentile FCT", _by_scheme("asym", TESTBED_SCHEMES), "load", "p99_fct", (
        Claim("Tail inversion: Clove-ECN/MPTCP p99 at 70%", 0.7, "clove-ecn", "mptcp", at_most=1.25),
        Claim("Clove-ECN p99 2.7x better than MPTCP (paper: 60%) at 70%", 0.7, "mptcp", "clove-ecn", at_least=2.7))),
    Figure("fig6", "Clove-ECN parameter sensitivity, asymmetric, avg FCT", (
        ("1xRTT,20p(best)", "fig6-gap", (("flowlet_gap_rtt", 1.0),)),
        ("0.2xRTT,20p", "fig6-gap", (("flowlet_gap_rtt", 0.2),)),
        ("5xRTT,20p", "fig6-gap", (("flowlet_gap_rtt", 5.0),)),
        ("1xRTT,40p", "fig6-threshold", ())), "load", "avg_fct", (
        Claim("A 0.2xRTT gap 5x worse than 1xRTT at 70%", 0.7, "0.2xRTT,20p", "1xRTT,20p(best)", at_least=5.0),
        Claim("A 40-packet ECN threshold 4x worse than 20 at 80%", 0.8, "1xRTT,40p", "1xRTT,20p(best)", at_least=4.0))),
    Figure("fig7", "incast, client goodput vs fan-in", _by_scheme("incast", ("clove-ecn", "edge-flowlet", "mptcp")),
           "fanout", "goodput_bps", (
        Claim("MPTCP incast collapse: Clove-ECN/MPTCP goodput at fan-in 8", 8, "clove-ecn", "mptcp", at_least=1.3),)),
    Figure("fig8a", "simulation, symmetric, avg FCT", _by_scheme("sym", SIM_SCHEMES), "load", "avg_fct", (
        Claim("Clove-ECN 1.4x better than ECMP at 80%", 0.8, "ecmp", "clove-ecn", at_least=1.4),)),
    Figure("fig8b", "simulation, asymmetric, avg FCT", _by_scheme("asym", SIM_SCHEMES), "load", "avg_fct", (
        Claim("Clove-ECN 3x better than ECMP at 70%", 0.7, "ecmp", "clove-ecn", at_least=3.0),
        Claim("Clove-ECN 1.8x better than Edge-Flowlet at 70%", 0.7, "edge-flowlet", "clove-ecn", at_least=1.8),
        Claim("Clove-ECN captures ~80% of the ECMP->CONGA gain at 70%", 0.7, "clove-ecn", at_least=0.8),
        Claim("Clove-INT captures ~95% of the ECMP->CONGA gain at 70%", 0.7, "clove-int", at_least=0.95),
        Claim("Edge-Flowlet captures only ~40% of it at 70%", 0.7, "edge-flowlet", at_most=0.5))),
    Figure("fig9", "mice FCT quantiles, asymmetric, 70% load", _by_scheme("asym", ("ecmp", "clove-ecn", "conga"), load=0.7),
           "quantile", "mice FCT", (
        Claim("Clove-ECN mice p99 captures ~80% of the ECMP->CONGA gap", 0.99, "clove-ecn", at_least=0.8),)),
    _knob("ablation-weight-reduction", "ECN weight-reduction factor, asym 70%", "weight_reduction",
          Claim("Cutting a sixth per echo is too timid: FCT(1/6)/FCT(1/3)", 1 / 6, "clove-ecn", "clove-ecn", 1.0, ref_x=1 / 3)),
    _knob("ablation-flowlet-gap", "flowlet gap (xRTT), asym 70%", "flowlet_gap_rtt",
          Claim("Gap U-shape, low side: FCT(0.2xRTT)/FCT(1xRTT)", 0.2, "clove-ecn", "clove-ecn", at_least=1.0, ref_x=1.0),
          Claim("Gap U-shape, high side: FCT(5xRTT)/FCT(1xRTT)", 5.0, "clove-ecn", "clove-ecn", at_least=1.0, ref_x=1.0)),
    _knob("ablation-congestion-expiry", "congestion-state expiry (xRTT), asym 70%", "congestion_expiry_rtt",
          Claim("Insensitive to expiry: FCT(10xRTT)/FCT(1xRTT)", 10.0, "clove-ecn", "clove-ecn", at_most=1.1, ref_x=1.0)),
    _knob("ablation-ecn-relay", "ECN relay interval (xRTT), asym 70%", "ecn_relay_interval_rtt",
          Claim("Relaying every RTT/2 costs little: FCT(0.5)/FCT(0)", 0.5, "clove-ecn", "clove-ecn", at_most=1.1, ref_x=0.0)),
)}


def _needed(names: Sequence[str]) -> List[Figure]:
    wanted = set(names) | {c.ref_figure for n in names for c in FIGURES[n].claims if c.ref_figure}
    return [fig for fig in FIGURES.values() if fig.name in wanted]


def suite_for(names: Sequence[str], spec: SuiteSpec) -> SuiteSpec:
    """``spec`` cut to the scenarios the figures read (Fig 9 runs in-process)."""
    read = {line[1] for fig in _needed(names) if fig.name != "fig9" for line in fig.lines}
    kept = [s for s in spec.scenarios if s.name in read]
    made = {m for s in kept for m in KIND_METRICS[s.kind]}
    return dataclasses.replace(spec, scenarios=kept, metrics=tuple(m for m in spec.metrics if m in made))


def points(line: Line, scenarios: Sequence[Scenario]) -> List[Scenario]:
    """The scenarios one line reads, in grid order."""
    _label, name, picks = line
    found = [s for s in scenarios if s.scenario_id.split("/", 1)[0] == name and all(s.params.get(k) == v for k, v in picks)]
    if not found:
        raise ValueError(f"the suite has no points for {name!r} {dict(picks)}")
    return found


def line_series(lines: Sequence[Line], x: str, metric: str, scenarios: Sequence[Scenario], result) -> Series:
    """``{label: [(x, across-seed mean)]}``; NaN and a warning if a seed failed."""
    def mean(scenario_id: str) -> float:
        record = result.results[scenario_id]
        if record.errors:
            warnings.warn(f"{scenario_id}: a seed failed ({'; '.join(record.errors.values())}); its point is NaN",
                          RuntimeWarning, stacklevel=3)
            return math.nan
        values = list(record.values(metric).values())
        return sum(values) / len(values) if values else math.nan
    return {line[0]: [(s.params[x], mean(s.scenario_id)) for s in points(line, scenarios)] for line in lines}


def fig9_cdfs(scenarios: Sequence[Scenario], seed: int) -> Dict[str, List[Tuple[float, float]]]:
    """Mice-flow FCT CDFs of Fig 9's points, run in-process."""
    from repro.harness import experiment, metrics

    cdfs = {}
    for line in FIGURES["fig9"].lines:
        config = points(line, scenarios)[0].config_for_seed(seed)
        collector = experiment.run_experiment(config).collector
        cdfs[line[0]] = collector.cdf(max_size=int(metrics.MICE_CUTOFF_BYTES * config.flow_scale))
    return cdfs


def fig9_percentiles(cdfs: Dict[str, List[Tuple[float, float]]], q: float = 0.99) -> Dict[str, float]:
    """Each CDF's ``q`` quantile (its first point reaching ``q``)."""
    return {name: next((fct for fct, frac in pts if frac >= q), pts[-1][0]) for name, pts in cdfs.items()}


def capture_ratios(series: Series, load: float) -> Dict[str, float]:
    """Each line's share of the ECMP->CONGA gain at ``load`` (NaN: no gain)."""
    at = {name: dict(pts)[load] for name, pts in series.items()}
    gain = at["ecmp"] - at["conga"]
    return {s: (at["ecmp"] - v) / gain if gain > 0 else math.nan for s, v in at.items() if s not in ("ecmp", "conga")}


def claim_value(claim: Claim, figure: str, series: Dict[str, Series]) -> float:
    """The quantity a claim bounds (NaN when the grid lacks a point)."""
    try:
        if claim.ref is None:
            return capture_ratios(series[figure], claim.x)[claim.line]
        den = dict(series[claim.ref_figure or figure][claim.ref])[claim.x if claim.ref_x is None else claim.ref_x]
        return dict(series[figure][claim.line])[claim.x] / den if den else math.nan
    except KeyError:
        return math.nan


def report(names: Sequence[str], spec: SuiteSpec, result=None) -> str:
    """The figures, read from a run of ``spec`` (or its cut), then their claims."""
    scenarios, series, blocks = spec.expand(), {}, []
    for fig in _needed(names):
        if fig.name == "fig9":
            cdfs = fig9_cdfs(scenarios, spec.seeds[0])
            series[fig.name] = {s: [(q, fig9_percentiles(cdfs, q)[s]) for q in (0.5, 0.9, 0.99)] for s in cdfs}
        else:
            series[fig.name] = line_series(fig.lines, fig.x, fig.metric, scenarios, result)
        if fig.name in names:
            gbps = fig.metric == "goodput_bps"
            text = render_table(series[fig.name], x_label=fig.x, value_scale=1e-9 if gbps else 1e3,
                                unit="Gbps" if gbps else "ms", x_format="{:g}")
            cdf = "\n" + render_cdf(cdfs) if fig.name == "fig9" else ""
            blocks.append(f"=== {fig.name}: {fig.title} ===\n{text}{cdf}")
    rows = [f"{'figure':<26} {'claim':<61} {'value':>6}  {'bound':<7} verdict"]
    for name, claim in ((n, c) for n in names for c in FIGURES[n].claims):
        value = claim_value(claim, name, series)
        bound = f">= {claim.at_least:g}" if claim.at_most == math.inf else f"<= {claim.at_most:g}"
        verdict = "n/a" if math.isnan(value) else "holds" if claim.at_least <= value <= claim.at_most else "fails"
        rows.append(f"{name:<26} {claim.text:<61} {value:>6.2f}  {bound:<7} {verdict}")
    return "\n\n".join(blocks + ["=== claims ===\n" + "\n".join(rows)])
