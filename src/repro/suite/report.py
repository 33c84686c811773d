"""Suite reports: markdown / JSON rendering of a :class:`SuiteResult`.

The markdown report has three sections:

1. **Overview** — run metadata (points, cache hits, failures, wall time);
2. **Scenarios** — one table row per scenario with each gated metric's
   across-seed mean and bootstrap confidence interval;
3. **Scheme comparisons** — for every scenario group that differs only in
   its ``scheme`` axis, each scheme paired seed-by-seed against the
   suite's ``baseline_scheme`` with the full statistical verdict (rel.
   shift, CI, sign/Mann-Whitney p, Cliff's delta) — the "clove beats ecmp
   on p99 FCT at 70% load" rows, significance-tested instead of eyeballed.

The JSON report is the artifact dict plus the computed comparisons, for
downstream tooling.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from repro.suite.execute import SuiteResult
from repro.suite.spec import SuiteSpec
from repro.suite.stats import (
    Comparison,
    bootstrap_mean_ci,
    compare_by_seed,
    mean,
    worsening,
)


def _spec_from_result(result: SuiteResult) -> Optional[SuiteSpec]:
    try:
        return SuiteSpec.from_dict(result.spec)
    except (KeyError, TypeError, ValueError):
        return None


def _gated_metrics(result: SuiteResult) -> List[str]:
    metrics = result.spec.get("metrics")
    return list(metrics) if metrics else ["avg_fct", "p99_fct"]


def _fmt(value: float, digits: int = 4) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "n/a"
    return f"{value:.{digits}g}"


def scheme_comparisons(
    result: SuiteResult,
) -> List[Tuple[str, str, str, Comparison]]:
    """Paired scheme-vs-baseline comparisons the artifact supports.

    Returns ``(group_id, candidate_scheme, metric, comparison)`` tuples:
    ``group_id`` is the scenario id with its scheme axis blanked, and the
    comparison pairs the candidate's per-seed values against the
    ``baseline_scheme`` of the embedded spec.  Empty when the spec has no
    baseline scheme or no scenario varies ``scheme``.
    """
    spec = _spec_from_result(result)
    if spec is None or spec.baseline_scheme is None:
        return []
    baseline = spec.baseline_scheme
    groups: Dict[str, Dict[str, str]] = {}
    for scenario in spec.expand():
        scheme = scenario.params.get("scheme")
        if "scheme" not in scenario.params or scenario.scenario_id not in result.results:
            continue
        group_id = scenario.scenario_id.replace(
            f"scheme={scheme}", "scheme=*"
        )
        groups.setdefault(group_id, {})[str(scheme)] = scenario.scenario_id
    out: List[Tuple[str, str, str, Comparison]] = []
    for group_id, by_scheme in groups.items():
        base_id = by_scheme.get(baseline)
        if base_id is None or len(by_scheme) < 2:
            continue
        base_result = result.results[base_id]
        for scheme, scenario_id in by_scheme.items():
            if scheme == baseline:
                continue
            candidate = result.results[scenario_id]
            for metric in _gated_metrics(result):
                comparison = compare_by_seed(
                    base_result.values(metric), candidate.values(metric)
                )
                if comparison is not None and comparison.n:
                    out.append((group_id, scheme, metric, comparison))
    return out


def render_markdown(result: SuiteResult, alpha: float = 0.05) -> str:
    """The full markdown report for one suite-result artifact."""
    meta = result.meta
    metrics = _gated_metrics(result)
    lines = [
        f"# Suite report: {result.suite}",
        "",
        f"- spec digest: `{result.spec_digest}`",
        f"- scenarios: {len(result.results)}"
        f" ({result.failed_runs} failed run(s))",
    ]
    rev = meta.get("git_rev")
    run = ", ".join(part for part in (
        rev and f"rev `{str(rev)[:10]}`", result.run_summary()) if part)
    if run:
        lines.append(f"- run: {run}")
    lines += ["", "## Scenarios", ""]
    header = "| scenario | seeds | " + " | ".join(
        f"{m} (mean [95% CI])" for m in metrics
    ) + " |"
    lines.append(header)
    lines.append("|" + "---|" * (2 + len(metrics)))
    for scenario_id, record in result.results.items():
        cells = [scenario_id, str(len(record.fingerprints))]
        for metric in metrics:
            values = list(record.values(metric).values())
            if not values:
                cells.append("n/a")
                continue
            lo, hi = bootstrap_mean_ci(values)
            cells.append(f"{_fmt(mean(values))} [{_fmt(lo)}, {_fmt(hi)}]")
        lines.append("| " + " | ".join(cells) + " |")
        for seed, error in sorted(record.errors.items()):
            lines.append(f"| &nbsp;&nbsp;seed {seed} FAILED: {error} ||"
                         + "|" * len(metrics))

    comparisons = scheme_comparisons(result)
    if comparisons:
        baseline = result.spec.get("baseline_scheme", "ecmp")
        lines += [
            "",
            f"## Scheme comparisons (vs `{baseline}`, paired by seed)",
            "",
            "| scenario | scheme | metric | shift | 95% CI of diff "
            "| sign p | MW p | delta | verdict |",
            "|---|---|---|---|---|---|---|---|---|",
        ]
        for group_id, scheme, metric, cmp_ in comparisons:
            worse = worsening(metric, cmp_) * 100.0
            if math.isnan(worse):
                verdict = "n/a"
            elif not cmp_.significant(alpha):
                verdict = "no significant difference"
            elif worse < 0:
                verdict = f"**better** ({-worse:.1f}% lower)"
            else:
                verdict = f"worse ({worse:.1f}% higher)"
            lines.append(
                f"| {group_id} | {scheme} | {metric} "
                f"| {cmp_.rel_diff * 100.0:+.1f}% "
                f"| [{_fmt(cmp_.ci_low)}, {_fmt(cmp_.ci_high)}] "
                f"| {cmp_.sign_p:.3g} | {cmp_.mann_whitney_p:.3g} "
                f"| {cmp_.cliffs_delta:+.2f} | {verdict} |"
            )
    lines.append("")
    return "\n".join(lines)


def report_dict(result: SuiteResult, alpha: float = 0.05) -> Dict[str, Any]:
    """The JSON report: the artifact plus computed scheme comparisons."""
    out = result.to_dict()
    out["comparisons"] = [
        {
            "scenario": group_id,
            "scheme": scheme,
            "metric": metric,
            "significant": cmp_.significant(alpha),
            "worsening_pct": worsening(metric, cmp_) * 100.0,
            **cmp_.to_dict(),
        }
        for group_id, scheme, metric, cmp_ in scheme_comparisons(result)
    ]
    return out
