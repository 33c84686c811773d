"""Golden baselines and the statistical regression gate.

``repro suite record`` runs a suite and snapshots every scenario's
per-seed metric payload (keyed by the runner fingerprints that produced
it) into a baseline file.  ``repro suite check`` re-runs the suite and
compares the fresh samples against the snapshot with the paired
statistics of :mod:`repro.suite.stats`: a gated metric regresses only
when its mean worsening exceeds the tolerance band **and** the shift is
statistically supported (sign-consistent across seeds, or significant
under the sign / Mann-Whitney tests).  Tolerance alone would flag noise;
significance alone would flag microscopic-but-consistent shifts — the
gate requires both.

Baseline file layout (JSON, committed next to the suite)::

    {"schema": 1, "kind": "suite-baseline", "suite": "paper-smoke",
     "spec_digest": "...",            # fingerprint of the recording spec
     "seeds": [1, 2], "metrics": ["avg_fct", "p99_fct"],
     "tolerance_pct": 10.0, "alpha": 0.05,
     "meta": {"recorded_unix": ..., "git_rev": "..."},
     "scenarios": {
       "<scenario-id>": {
         "fingerprints": {"1": "...", "2": "..."},
         "metrics": {"avg_fct": {"1": 0.0123, ...}, ...}}}}

Fingerprint drift (a schema bump or config change since recording) is
reported as a warning, not a failure: values are still compared, and the
warning tells the maintainer the baseline wants re-recording.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.harness.metrics import METRIC_KEYS
from repro.suite.execute import SuiteResult
from repro.suite.spec import KIND_METRICS, SuiteSpec
from repro.suite.stats import Comparison, compare_by_seed, worsening
from repro.telemetry.core import git_revision

#: baseline schema; bump on incompatible layout changes
BASELINE_SCHEMA = 1


def baselines_from_result(spec: SuiteSpec, result: SuiteResult) -> Dict[str, Any]:
    """Snapshot a suite run as a committed-baseline document.

    Scenarios with failed seeds are recorded with the seeds that did
    complete; a scenario with no completed seed at all is refused — a
    broken run must not become the golden reference.
    """
    scenarios: Dict[str, Any] = {}
    for scenario_id, record in result.results.items():
        if not record.metrics:
            raise ValueError(
                f"cannot record baselines: scenario {scenario_id!r} has no "
                f"completed seeds ({'; '.join(record.errors.values())})"
            )
        scenarios[scenario_id] = {
            "fingerprints": {
                str(s): f for s, f in record.fingerprints.items()
            },
            "metrics": {
                key: {str(s): v for s, v in by_seed.items()}
                for key, by_seed in record.metrics.items()
            },
        }
    return {
        "schema": BASELINE_SCHEMA,
        "kind": "suite-baseline",
        "suite": spec.name,
        "spec_digest": result.spec_digest,
        "seeds": list(spec.seeds),
        "metrics": list(spec.metrics),
        "tolerance_pct": spec.tolerance_pct,
        "alpha": spec.alpha,
        "meta": {"recorded_unix": time.time(), "git_rev": git_revision()},
        "scenarios": scenarios,
    }


def save_baselines(data: Dict[str, Any], path: Union[str, Path]) -> None:
    """Write a baseline document as stable (sorted-key) JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_baselines(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a baseline document; OSError/ValueError on bad input."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or data.get("kind") != "suite-baseline":
        raise ValueError(f"{path}: not a suite-baseline document")
    if data.get("schema") != BASELINE_SCHEMA:
        raise ValueError(
            f"{path}: baseline schema {data.get('schema')} != "
            f"{BASELINE_SCHEMA}; re-record with `repro suite record`"
        )
    return data


def _seed_values(raw: Dict[str, Any]) -> Dict[int, float]:
    return {int(s): float(v) for s, v in raw.items()}


def _gated(metrics: Sequence[str], scenarios: Sequence[Dict[str, Any]]):
    """``scenario_id -> the gated metrics its kind produces`` (an incast
    scenario is gated on ``goodput_bps`` only, never on FCTs)."""
    kinds = {s.get("name"): s.get("kind", "experiment") for s in scenarios}

    def gated(scenario_id: str) -> List[str]:
        kind = kinds.get(scenario_id.split("/", 1)[0], "experiment")
        produced = KIND_METRICS.get(kind, METRIC_KEYS)
        return [m for m in metrics if m in produced]
    return gated


@dataclass
class Finding:
    """One verdict of a check/diff: a gate failure, warning or note."""

    #: "regression" | "error" | "missing-baseline" | "no-pairing" fail the
    #: gate; "improvement" | "drift" | "extra-baseline" are informational
    kind: str
    scenario_id: str
    metric: Optional[str]
    message: str
    comparison: Optional[Comparison] = None

    FAILING = ("regression", "error", "missing-baseline", "no-pairing")

    @property
    def failing(self) -> bool:
        return self.kind in self.FAILING

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (comparison inlined when present)."""
        out: Dict[str, Any] = {
            "kind": self.kind,
            "scenario_id": self.scenario_id,
            "metric": self.metric,
            "message": self.message,
        }
        if self.comparison is not None:
            out["comparison"] = self.comparison.to_dict()
        return out


@dataclass
class CheckReport:
    """Outcome of a regression check (or an offline artifact diff)."""

    suite: str
    #: gated metric keys the check ran over
    metrics: List[str]
    tolerance_pct: float
    alpha: float
    #: (scenario, metric) pairs compared
    checked: int = 0
    findings: List[Finding] = field(default_factory=list)

    @property
    def regressions(self) -> List[Finding]:
        return [f for f in self.findings if f.failing]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def add(self, finding: Finding) -> None:
        """Append one finding to the report."""
        self.findings.append(finding)

    def summary(self) -> str:
        """Human-readable verdict, regressions first, one line each."""
        lines = [
            f"suite {self.suite}: {self.checked} scenario-metric pair(s) "
            f"checked (tolerance {self.tolerance_pct:g}%, "
            f"alpha {self.alpha:g})"
        ]
        order = {"regression": 0, "error": 1, "missing-baseline": 2,
                 "no-pairing": 3, "improvement": 4, "drift": 5,
                 "extra-baseline": 6}
        for finding in sorted(
            self.findings, key=lambda f: order.get(f.kind, 9)
        ):
            tag = "FAIL" if finding.failing else "note"
            where = finding.scenario_id + (
                f" [{finding.metric}]" if finding.metric else ""
            )
            lines.append(f"{tag} {finding.kind:<16} {where}: {finding.message}")
        verdict = (
            "OK: no statistically significant regressions"
            if self.ok
            else f"REGRESSED: {len(self.regressions)} failing finding(s)"
        )
        lines.append(verdict)
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form, findings included."""
        return {
            "suite": self.suite,
            "metrics": list(self.metrics),
            "tolerance_pct": self.tolerance_pct,
            "alpha": self.alpha,
            "checked": self.checked,
            "ok": self.ok,
            "findings": [f.to_dict() for f in self.findings],
        }


def _describe(comparison: Comparison, worse_pct: float) -> str:
    return (
        f"{worse_pct:+.1f}% vs baseline "
        f"({comparison.mean_a:.6g} -> {comparison.mean_b:.6g}, "
        f"n={comparison.n}, sign p={comparison.sign_p:.3g}, "
        f"MW p={comparison.mann_whitney_p:.3g}, "
        f"delta={comparison.cliffs_delta:+.2f}"
        f"{', consistent' if comparison.consistent else ''})"
    )


def _gate_pair(
    report: CheckReport,
    scenario_id: str,
    metric: str,
    reference: Dict[int, float],
    current: Dict[int, float],
) -> None:
    """Compare one (scenario, metric) sample pair and record the verdict."""
    comparison = compare_by_seed(reference, current)
    if comparison is None or comparison.n == 0:
        report.add(Finding(
            "no-pairing", scenario_id, metric,
            "no common seeds with finite values to pair on",
        ))
        return
    report.checked += 1
    worse_pct = worsening(metric, comparison) * 100.0
    if math.isnan(worse_pct):
        if comparison.diff != 0.0:
            report.add(Finding(
                "no-pairing", scenario_id, metric,
                f"baseline mean is 0 but values moved "
                f"({comparison.mean_a:.6g} -> {comparison.mean_b:.6g})",
            ))
        return
    supported = comparison.consistent or comparison.significant(report.alpha)
    if worse_pct > report.tolerance_pct and supported:
        report.add(Finding(
            "regression", scenario_id, metric,
            _describe(comparison, worse_pct), comparison,
        ))
    elif -worse_pct > report.tolerance_pct and supported:
        report.add(Finding(
            "improvement", scenario_id, metric,
            _describe(comparison, worse_pct), comparison,
        ))


def check_result(
    spec: SuiteSpec,
    result: SuiteResult,
    baselines: Dict[str, Any],
    tolerance_pct: Optional[float] = None,
    alpha: Optional[float] = None,
) -> CheckReport:
    """Gate a fresh suite run against recorded baselines.

    Gated metrics, tolerance and alpha default to the spec's protocol;
    explicit arguments override (a CI job can tighten the band without
    editing the suite).
    """
    report = CheckReport(
        suite=spec.name,
        metrics=list(spec.metrics),
        tolerance_pct=(
            spec.tolerance_pct if tolerance_pct is None else tolerance_pct
        ),
        alpha=spec.alpha if alpha is None else alpha,
    )
    recorded = baselines.get("scenarios", {})
    gated = _gated(report.metrics, spec.to_dict()["scenarios"])
    if baselines.get("spec_digest") != result.spec_digest:
        report.add(Finding(
            "drift", "*", None,
            "spec digest changed since the baselines were recorded "
            "(config/schema drift); values are still compared — "
            "re-record once the change is intentional",
        ))
    for scenario_id, record in result.results.items():
        for seed, error in sorted(record.errors.items()):
            report.add(Finding(
                "error", scenario_id, None, f"seed {seed} failed: {error}",
            ))
        base = recorded.get(scenario_id)
        if base is None:
            report.add(Finding(
                "missing-baseline", scenario_id, None,
                "no recorded baseline for this scenario "
                "(run `repro suite record` to add it)",
            ))
            continue
        if base.get("fingerprints") != {
            str(s): f for s, f in record.fingerprints.items()
        }:
            report.add(Finding(
                "drift", scenario_id, None,
                "runner fingerprints differ from the recorded baseline",
            ))
        base_metrics = base.get("metrics", {})
        for metric in gated(scenario_id):
            reference = _seed_values(base_metrics.get(metric, {}))
            if not reference:
                report.add(Finding(
                    "missing-baseline", scenario_id, metric,
                    "baseline holds no values for this metric",
                ))
                continue
            _gate_pair(
                report, scenario_id, metric, reference,
                record.values(metric),
            )
    for scenario_id in recorded:
        if scenario_id not in result.results:
            report.add(Finding(
                "extra-baseline", scenario_id, None,
                "baseline scenario absent from this run (suite shrank?)",
            ))
    return report


def diff_results(
    a: SuiteResult,
    b: SuiteResult,
    metrics: Optional[Sequence[str]] = None,
    tolerance_pct: float = 10.0,
    alpha: float = 0.05,
) -> CheckReport:
    """Offline comparison of two saved artifacts (``a`` is the reference).

    Gated metrics default to the metric protocol recorded in ``b``'s
    embedded spec (falling back to avg/p99 FCT).
    """
    if metrics is None:
        metrics = b.spec.get("metrics") or ("avg_fct", "p99_fct")
    report = CheckReport(
        suite=f"{a.suite} vs {b.suite}",
        metrics=list(metrics),
        tolerance_pct=tolerance_pct,
        alpha=alpha,
    )
    gated = _gated(report.metrics, b.spec.get("scenarios", []))
    for scenario_id, current in b.results.items():
        reference = a.results.get(scenario_id)
        if reference is None:
            report.add(Finding(
                "missing-baseline", scenario_id, None,
                "scenario absent from the reference artifact",
            ))
            continue
        for metric in gated(scenario_id):
            ref_values = reference.values(metric)
            if not ref_values:
                report.add(Finding(
                    "missing-baseline", scenario_id, metric,
                    "reference artifact holds no values for this metric",
                ))
                continue
            _gate_pair(
                report, scenario_id, metric, ref_values,
                current.values(metric),
            )
    for scenario_id in a.results:
        if scenario_id not in b.results:
            report.add(Finding(
                "extra-baseline", scenario_id, None,
                "scenario absent from the second artifact",
            ))
    return report


__all__ = [
    "BASELINE_SCHEMA",
    "CheckReport",
    "Finding",
    "baselines_from_result",
    "check_result",
    "diff_results",
    "load_baselines",
    "save_baselines",
]
