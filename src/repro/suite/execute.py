"""Suite execution: lower a :class:`SuiteSpec` to runner jobs and collect
per-seed metric payloads into a serializable :class:`SuiteResult`.

The whole (scenario x seed) grid is submitted to
:func:`repro.runner.run_jobs` as one batch, so ``-j N`` parallelizes
across every point of every scenario, cache hits skip execution, and the
runner's determinism guarantee carries over verbatim: the deterministic
portion of a :class:`SuiteResult` (everything except the ``meta`` block)
is bit-identical serial vs pooled, run vs cached rerun.

A result round-trips through JSON (:meth:`SuiteResult.save` /
:func:`load_result`), which is the artifact ``repro suite diff`` and
``repro suite report`` consume offline.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.runner import RunnerConfig, run_jobs
from repro.runner.job import fingerprint_payload
from repro.suite.spec import SuiteSpec
from repro.telemetry.core import git_revision

#: artifact schema; bump when the result layout changes incompatibly
RESULT_SCHEMA = 1


@dataclass
class ScenarioResult:
    """Per-seed outcomes of one concrete scenario."""

    scenario_id: str
    #: seed -> runner fingerprint of the executed config
    fingerprints: Dict[int, str] = field(default_factory=dict)
    #: metric key -> seed -> value (the full standard payload, so a
    #: recorded artifact can gate on metrics chosen later)
    metrics: Dict[str, Dict[int, float]] = field(default_factory=dict)
    #: seed -> terminal failure description (seeds absent from metrics)
    errors: Dict[int, str] = field(default_factory=dict)

    def values(self, metric: str) -> Dict[int, float]:
        """Seed-keyed values of one metric (empty when never recorded)."""
        return dict(self.metrics.get(metric, {}))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form; seed keys become strings."""
        return {
            "scenario_id": self.scenario_id,
            "fingerprints": {str(s): f for s, f in self.fingerprints.items()},
            "metrics": {
                key: {str(s): v for s, v in by_seed.items()}
                for key, by_seed in self.metrics.items()
            },
            "errors": {str(s): e for s, e in self.errors.items()},
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "ScenarioResult":
        return ScenarioResult(
            scenario_id=data["scenario_id"],
            fingerprints={
                int(s): f for s, f in data.get("fingerprints", {}).items()
            },
            metrics={
                key: {int(s): float(v) for s, v in by_seed.items()}
                for key, by_seed in data.get("metrics", {}).items()
            },
            errors={int(s): e for s, e in data.get("errors", {}).items()},
        )


@dataclass
class SuiteResult:
    """One suite run: spec identity plus every scenario's seed samples."""

    suite: str
    spec: Dict[str, Any]
    spec_digest: str
    #: scenario_id -> result, in suite declaration order
    results: Dict[str, ScenarioResult]
    #: non-deterministic run context (wall time, git rev, jobs, ...)
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def failed_runs(self) -> int:
        return sum(len(r.errors) for r in self.results.values())

    def run_summary(self) -> str:
        """The run context in one line: wall time, workers, the share of
        the workers' time spent in jobs, cache hits."""
        meta = self.meta
        detail = []
        if meta.get("wall_s") is not None:
            detail.append(f"wall {meta['wall_s']:g}s")
        if meta.get("jobs"):
            detail.append(f"jobs {meta['jobs']}")
        if meta.get("busy_share") is not None:
            detail.append(f"busy {meta['busy_share']:.2f}")
        if meta.get("cached_points"):
            detail.append(f"{meta['cached_points']} cached point(s)")
        return ", ".join(detail)

    def comparable(self) -> Dict[str, Any]:
        """The deterministic portion — what serial-vs-parallel identity is
        stated over (and what ``suite diff`` compares)."""
        return {
            "schema": RESULT_SCHEMA,
            "suite": self.suite,
            "spec_digest": self.spec_digest,
            "results": [r.to_dict() for r in self.results.values()],
        }

    def to_dict(self) -> Dict[str, Any]:
        """Full JSON-ready artifact: comparable portion + spec + meta."""
        out = self.comparable()
        out["spec"] = self.spec
        out["meta"] = self.meta
        return out

    def save(self, path: Union[str, Path]) -> None:
        """Write the artifact as stable (sorted-key) JSON."""
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "SuiteResult":
        if not isinstance(data, dict) or data.get("schema") != RESULT_SCHEMA:
            raise ValueError(
                f"not a suite result artifact (schema "
                f"{data.get('schema') if isinstance(data, dict) else '?'}, "
                f"expected {RESULT_SCHEMA})"
            )
        results = {}
        for raw in data.get("results", []):
            result = ScenarioResult.from_dict(raw)
            results[result.scenario_id] = result
        return SuiteResult(
            suite=data.get("suite", "?"),
            spec=data.get("spec", {}),
            spec_digest=data.get("spec_digest", ""),
            results=results,
            meta=data.get("meta", {}),
        )


def load_result(path: Union[str, Path]) -> SuiteResult:
    """Load a saved suite-result artifact; OSError/ValueError on bad input."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return SuiteResult.from_dict(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def spec_digest(spec: SuiteSpec) -> str:
    """Content digest of a suite spec (rides the runner fingerprints, so
    an execution-semantics schema bump invalidates it too)."""
    return fingerprint_payload("suite", spec.to_dict())


def run_suite(
    spec: SuiteSpec,
    runner: Optional[RunnerConfig] = None,
    telemetry=None,
) -> SuiteResult:
    """Execute every (scenario x seed) point of ``spec``.

    ``runner`` selects parallelism and caching (None: serial, uncached);
    ``telemetry`` is an optional scope every run reports into (the suite
    stamps its own manifest).
    """
    scenarios = spec.expand()
    jobs = [
        scenario.job(seed) for scenario in scenarios for seed in spec.seeds
    ]
    if telemetry is not None and getattr(telemetry, "enabled", False):
        telemetry.manifest(
            run="suite",
            suite=spec.name,
            scenarios=len(scenarios),
            seeds=list(spec.seeds),
            points=len(jobs),
        )
    wall_start = time.perf_counter()
    job_results = run_jobs(jobs, runner=runner, telemetry=telemetry)
    wall_s = time.perf_counter() - wall_start

    results: Dict[str, ScenarioResult] = {}
    index = 0
    for scenario in scenarios:
        record = ScenarioResult(scenario.scenario_id)
        for seed in spec.seeds:
            job_result = job_results[index]
            index += 1
            record.fingerprints[seed] = job_result.spec.fingerprint
            if job_result.ok:
                for key, value in job_result.metrics.items():
                    record.metrics.setdefault(key, {})[seed] = float(value)
            else:
                record.errors[seed] = job_result.error or "failed"
        results[scenario.scenario_id] = record

    cfg = runner if runner is not None else RunnerConfig()
    # the executed jobs' time over the time the workers had: 1 - busy_share
    # is the idle tail a batch leaves (None when every point was cached)
    executed = [r for r in job_results if r.attempts]
    workers = max(1, min(cfg.jobs, len(executed)))
    busy_share = (round(sum(r.wall_s for r in executed) / (workers * wall_s), 3)
                  if executed else None)
    return SuiteResult(
        suite=spec.name,
        spec=spec.to_dict(),
        spec_digest=spec_digest(spec),
        results=results,
        meta={
            "recorded_unix": time.time(),
            "git_rev": git_revision(),
            "wall_s": round(wall_s, 3),
            "jobs": cfg.jobs,
            "busy_share": busy_share,
            "cache_dir": cfg.cache_dir,
            "cached_points": sum(1 for r in job_results if r.cached),
            "failed_points": sum(1 for r in job_results if not r.ok),
        },
    )


def results_equal(a: SuiteResult, b: SuiteResult) -> bool:
    """Bit-exact equality of the deterministic portions (NaN == NaN).

    The serial-vs-parallel determinism guarantee is stated in these
    terms.
    """
    return _canon(a.comparable()) == _canon(b.comparable())


def _canon(obj: Any) -> str:
    # NaN round-trips through json.dumps as the token NaN, which compares
    # equal as text — exactly the semantics we want here.
    return json.dumps(obj, sort_keys=True, default=str)
