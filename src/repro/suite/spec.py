"""Declarative scenario matrices: ``SuiteSpec`` / ``ScenarioSpec``.

A *suite* is a named set of scenario matrices plus the protocol they run
under (seeds, gated metrics, tolerance).  Each :class:`ScenarioSpec`
declares a ``base`` of :class:`~repro.harness.config.ExperimentConfig`
overrides and a ``matrix`` of axes — the cross-product of the axis values,
minus ``exclude`` rules, plus ``pin`` overrides, lowers to one concrete
:class:`Scenario` (and per-seed ``ExperimentConfig``) per combination::

    {"name": "paper-smoke",
     "seeds": [1, 2],
     "metrics": ["avg_fct", "p99_fct"],
     "scenarios": [
       {"name": "asym",
        "base": {"asymmetric": true, "jobs_per_client": 12},
        "matrix": {"scheme": ["ecmp", "clove-ecn"], "load": [0.3, 0.5]},
        "exclude": [{"scheme": "ecmp", "load": 0.5}],
        "pin": {"connections_per_client": 2}}]}

Axes are ``ExperimentConfig`` field names (but not ``discovery`` or
``health_config``, whose tuning objects declare no bounds), plus two sugar
axes:

* ``chaos`` — a preset name (``repro chaos presets``) or a serialized
  :class:`~repro.chaos.plan.FaultPlan` dict;
* ``topology`` — a named preset from :data:`TOPOLOGIES` or a dict of
  :class:`~repro.topology.leafspine.LeafSpineConfig` fields.

A scenario of ``"kind": "incast"`` runs the Figure 7 fan-in experiment
instead: its axes are the :func:`~repro.harness.incast.run_incast`
keywords (:data:`~repro.workloads.incast.INCAST_AXES`), each point lowers to
:meth:`JobSpec.incast <repro.runner.job.JobSpec.incast>` and its one
metric is ``goodput_bps``.

Every point's configs are built at load time, so unknown axes, a value
outside its knob's declared bound (an unknown scheme or workload name
included), topology/chaos references and exclude keys are all rejected
then with descriptive errors — a suite that parses will run.

Specs load from JSON or TOML files (:func:`load_suite`); the bundled
suites in :mod:`repro.suite.bundles` are plain ``SuiteSpec`` values built
through the same validation.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.chaos.plan import PRESETS, FaultPlan, preset
from repro.harness.config import ExperimentConfig, incast_configs
from repro.harness.experiment import default_topology
from repro.harness.metrics import METRIC_KEYS
from repro.runner.job import JobSpec
from repro.topology.leafspine import LeafSpineConfig
from repro.workloads.incast import INCAST_AXES

#: named topology presets a ``topology`` axis value may reference
TOPOLOGIES: Dict[str, Optional[LeafSpineConfig]] = {
    # the experiment harness default (scaled-down paper testbed)
    "default": None,
    # the paper's full Section-5 testbed (16 hosts/leaf, 40G fabric)
    "paper": LeafSpineConfig(),
    # minimal fabric for smoke runs (2 hosts/leaf)
    "tiny": LeafSpineConfig(hosts_per_leaf=2, fabric_rate_bps=20e9),
}

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}
#: axes resolved specially before ExperimentConfig construction
_SUGAR_AXES = ("chaos", "topology")
#: config fields a spec cannot set: their tuning objects declare no
#: bounds, so a spec file's value for one could not be checked at load
_CODE_ONLY = ("discovery", "health_config")
#: scenario kind -> the payload metrics its runs produce
KIND_METRICS: Dict[str, Tuple[str, ...]] = {
    "experiment": METRIC_KEYS, "incast": ("goodput_bps",)}


def _resolve_chaos(value: Any, where: str) -> Optional[FaultPlan]:
    """A ``chaos`` axis value: preset name, plan dict, or None."""
    if value is None:
        return None
    if isinstance(value, FaultPlan):
        return value
    if isinstance(value, str):
        if value not in PRESETS:
            valid = ", ".join(sorted(PRESETS))
            raise ValueError(
                f"{where}: unknown chaos preset {value!r} "
                f"(valid presets: {valid})"
            )
        return preset(value)
    if isinstance(value, dict):
        try:
            return FaultPlan.from_dict(value)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{where}: invalid fault plan: {exc}") from exc
    raise ValueError(
        f"{where}: chaos must be a preset name, a plan dict or null, "
        f"not {type(value).__name__}"
    )


def _resolve_topology(value: Any, where: str) -> Optional[LeafSpineConfig]:
    """A ``topology`` axis value: preset name, field dict, or None."""
    if value is None or isinstance(value, LeafSpineConfig):
        return value
    if isinstance(value, str):
        if value not in TOPOLOGIES:
            valid = ", ".join(sorted(TOPOLOGIES))
            raise ValueError(
                f"{where}: unknown topology {value!r} "
                f"(valid presets: {valid})"
            )
        return TOPOLOGIES[value]
    if isinstance(value, dict):
        valid_fields = {f.name for f in dataclasses.fields(LeafSpineConfig)}
        unknown = set(value) - valid_fields
        if unknown:
            raise ValueError(
                f"{where}: unknown topology field(s) {sorted(unknown)} "
                f"(valid fields: {sorted(valid_fields)})"
            )
        return dataclasses.replace(default_topology(), **value)
    raise ValueError(
        f"{where}: topology must be a preset name, a field dict or null, "
        f"not {type(value).__name__}"
    )


def _check_params(params: Dict[str, Any], where: str,
                  kind: str = "experiment") -> None:
    """Reject unknown axis/override names with the valid list."""
    if "seed" in params:
        raise ValueError(
            f"{where}: 'seed' is not an axis — seeds are the suite-level "
            f"pairing protocol (SuiteSpec.seeds)"
        )
    refused = [name for name in _CODE_ONLY if name in params]
    if kind == "experiment" and refused:
        raise ValueError(
            f"{where}: {refused} cannot be set from a suite spec (no "
            f"declared bounds to check it against); build the "
            f"ExperimentConfig in code"
        )
    names = (set(INCAST_AXES) if kind == "incast"
             else _CONFIG_FIELDS | set(_SUGAR_AXES))
    unknown = set(params) - names
    if unknown:
        valid = sorted(names)
        raise ValueError(
            f"{where}: unknown axis/override {sorted(unknown)} "
            f"(valid: {valid})"
        )


def build_config(params: Dict[str, Any], where: str = "scenario") -> ExperimentConfig:
    """Lower one expanded parameter dict to an :class:`ExperimentConfig`.

    Validates axis names and resolves the ``chaos`` and ``topology`` sugar
    axes; the config checks every other value against its knob's bound.
    """
    _check_params(params, where)
    params = dict(params)
    params["chaos"] = _resolve_chaos(params.get("chaos"), where)
    params["topology"] = _resolve_topology(params.get("topology"), where)
    try:
        return ExperimentConfig(**params)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _axis_token(value: Any) -> str:
    """One axis value rendered into a scenario id (stable and compact)."""
    if isinstance(value, float):
        return format(value, "g")
    if isinstance(value, dict):
        return "custom"
    if value is None:
        return "none"
    return str(value)


@dataclass
class Scenario:
    """One concrete point of an expanded matrix (seeds still abstract)."""

    #: stable identifier: ``<scenario-name>/axis=value,axis=value``
    #: (axes in sorted-name order, so the id survives serialization)
    scenario_id: str
    #: the merged parameter dict the id was derived from
    params: Dict[str, Any]
    #: the lowered per-seed-independent experiment config (seed=0 sentinel;
    #: :meth:`config_for_seed` stamps the real seed); None for incast
    config: Optional[ExperimentConfig]
    #: ``"experiment"`` or ``"incast"`` (then ``params`` are the
    #: ``run_incast`` keywords)
    kind: str = "experiment"

    def config_for_seed(self, seed: int) -> ExperimentConfig:
        """The scenario's config with the real seed stamped in."""
        return dataclasses.replace(self.config, seed=seed)

    def job(self, seed: int) -> JobSpec:
        """The runner job for one seed of this scenario."""
        label = f"{self.scenario_id} seed={seed}"
        if self.kind == "incast":
            return JobSpec.incast(label=label, seed=seed, **self.params)
        return JobSpec.experiment(self.config_for_seed(seed), label=label)


@dataclass
class ScenarioSpec:
    """One scenario matrix inside a suite."""

    name: str
    #: ExperimentConfig overrides shared by every combination
    base: Dict[str, Any] = field(default_factory=dict)
    #: axis -> list of values; the cross-product is taken in axis order
    matrix: Dict[str, List[Any]] = field(default_factory=dict)
    #: combinations to drop: a combo is excluded when *all* keys of any
    #: rule match its (base + matrix) parameters
    exclude: List[Dict[str, Any]] = field(default_factory=list)
    #: overrides applied after expansion (they never appear in the id)
    pin: Dict[str, Any] = field(default_factory=dict)
    #: ``"experiment"`` (ExperimentConfig axes) or ``"incast"``
    #: (:data:`~repro.workloads.incast.INCAST_AXES`)
    kind: str = "experiment"

    def validate(self) -> None:
        """Reject unknown axes, bad value lists and bogus exclude keys."""
        if not self.name:
            raise ValueError("scenario needs a non-empty name")
        where = f"scenario {self.name!r}"
        if self.kind not in KIND_METRICS:
            raise ValueError(f"{where}: unknown kind {self.kind!r} "
                             f"(valid: {', '.join(KIND_METRICS)})")
        for params in (self.base, self.matrix, self.pin):
            _check_params(params, where, self.kind)
        for axis, values in self.matrix.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(
                    f"{where}: axis {axis!r} needs a non-empty value list"
                )
        known = set(self.base) | set(self.matrix) | set(self.pin)
        for rule in self.exclude:
            if not rule:
                raise ValueError(f"{where}: empty exclude rule")
            bogus = set(rule) - known
            if bogus:
                raise ValueError(
                    f"{where}: exclude rule references {sorted(bogus)}, "
                    f"which no base/matrix/pin entry defines"
                )

    def expand(self) -> List[Scenario]:
        """The concrete scenarios this matrix describes, in grid order."""
        self.validate()
        axes = list(self.matrix)
        combos = (
            itertools.product(*(self.matrix[axis] for axis in axes))
            if axes else [()]
        )
        scenarios: List[Scenario] = []
        for combo in combos:
            point = dict(zip(axes, combo))
            params = {**self.base, **point}
            if any(
                all(params.get(k) == v for k, v in rule.items())
                for rule in self.exclude
            ):
                continue
            params.update(self.pin)
            # Sorted axis order: ids must not depend on matrix dict
            # insertion order, which artifact serialization (JSON with
            # sort_keys=True) does not preserve.
            suffix = ",".join(
                f"{axis}={_axis_token(point[axis])}" for axis in sorted(axes)
            )
            scenario_id = self.name + (f"/{suffix}" if suffix else "")
            where = f"scenario {scenario_id!r}"
            if self.kind == "incast":
                # built to check the point, which keeps the keywords as
                # given: defaults filled in here would change the job
                # fingerprint
                try:
                    incast_configs(**params)
                except ValueError as exc:
                    raise ValueError(f"{where}: {exc}") from exc
                scenarios.append(Scenario(scenario_id, params, None, "incast"))
                continue
            config = build_config(params, where=where)
            scenarios.append(Scenario(scenario_id, params, config))
        if not scenarios:
            raise ValueError(
                f"scenario {self.name!r}: every combination was excluded"
            )
        return scenarios

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form; empty sections and the default kind are
        omitted (so experiment-only specs keep their digests)."""
        out: Dict[str, Any] = {"name": self.name}
        if self.kind != "experiment":
            out["kind"] = self.kind
        if self.base:
            out["base"] = dict(self.base)
        if self.matrix:
            out["matrix"] = {k: list(v) for k, v in self.matrix.items()}
        if self.exclude:
            out["exclude"] = [dict(rule) for rule in self.exclude]
        if self.pin:
            out["pin"] = dict(self.pin)
        return out

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "ScenarioSpec":
        if not isinstance(data, dict):
            raise ValueError(f"scenario must be a dict, not {type(data).__name__}")
        known = {"name", "kind", "base", "matrix", "exclude", "pin"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"scenario {data.get('name', '?')!r}: unknown key(s) "
                f"{sorted(unknown)} (valid: {sorted(known)})"
            )
        spec = ScenarioSpec(
            name=str(data.get("name", "")),
            base=dict(data.get("base", {})),
            matrix={k: list(v) for k, v in dict(data.get("matrix", {})).items()},
            exclude=[dict(r) for r in data.get("exclude", [])],
            pin=dict(data.get("pin", {})),
            kind=str(data.get("kind", "experiment")),
        )
        spec.validate()
        return spec


@dataclass
class SuiteSpec:
    """A named set of scenario matrices plus the regression-gate protocol."""

    name: str
    scenarios: List[ScenarioSpec]
    description: str = ""
    #: seeds every scenario runs under — the pairing key of the statistics
    seeds: Tuple[int, ...] = (1, 2, 3)
    #: metric payload keys the regression gate checks
    metrics: Tuple[str, ...] = ("avg_fct", "p99_fct")
    #: mean worsening (percent) beyond which a paired shift is a regression
    tolerance_pct: float = 10.0
    #: significance level for the paired tests
    alpha: float = 0.05
    #: scheme the report's A/B comparisons measure against (when present
    #: on a ``scheme`` axis); None disables the comparison section
    baseline_scheme: Optional[str] = "ecmp"

    def validate(self) -> None:
        """Validate the protocol fields and every scenario spec."""
        if not self.name:
            raise ValueError("suite needs a non-empty name")
        if not self.scenarios:
            raise ValueError(f"suite {self.name!r} declares no scenarios")
        if not self.seeds:
            raise ValueError(f"suite {self.name!r} needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"suite {self.name!r}: duplicate seeds")
        if self.tolerance_pct < 0:
            raise ValueError(f"suite {self.name!r}: negative tolerance")
        if not 0 < self.alpha < 1:
            raise ValueError(f"suite {self.name!r}: alpha must be in (0, 1)")
        names = [s.name for s in self.scenarios]
        if len(set(names)) != len(names):
            raise ValueError(f"suite {self.name!r}: duplicate scenario names")
        for scenario in self.scenarios:
            scenario.validate()
        # a metric is valid when some scenario's kind produces it
        valid = [key for kind in dict.fromkeys(s.kind for s in self.scenarios)
                 for key in KIND_METRICS[kind]]
        for key in self.metrics:
            if key not in valid:
                raise ValueError(
                    f"suite {self.name!r}: unknown metric {key!r} "
                    f"(valid: {', '.join(valid)})"
                )

    def expand(self) -> List[Scenario]:
        """Every concrete scenario of the suite, in declaration order."""
        self.validate()
        out: List[Scenario] = []
        for spec in self.scenarios:
            out.extend(spec.expand())
        ids = [s.scenario_id for s in out]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(
                f"suite {self.name!r}: duplicate scenario ids {dupes}"
            )
        return out

    def jobs(self) -> List[JobSpec]:
        """The full (scenario x seed) job list, scenario-major."""
        return [
            scenario.job(seed)
            for scenario in self.expand()
            for seed in self.seeds
        ]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (the fingerprinted spec document)."""
        return {
            "name": self.name,
            "description": self.description,
            "seeds": list(self.seeds),
            "metrics": list(self.metrics),
            "tolerance_pct": self.tolerance_pct,
            "alpha": self.alpha,
            "baseline_scheme": self.baseline_scheme,
            "scenarios": [s.to_dict() for s in self.scenarios],
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "SuiteSpec":
        if not isinstance(data, dict):
            raise ValueError(f"suite must be a dict, not {type(data).__name__}")
        known = {
            "name", "description", "seeds", "metrics", "tolerance_pct",
            "alpha", "baseline_scheme", "scenarios",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"suite {data.get('name', '?')!r}: unknown key(s) "
                f"{sorted(unknown)} (valid: {sorted(known)})"
            )
        suite = SuiteSpec(
            name=str(data.get("name", "")),
            description=str(data.get("description", "")),
            seeds=tuple(int(s) for s in data.get("seeds", (1, 2, 3))),
            metrics=tuple(data.get("metrics", ("avg_fct", "p99_fct"))),
            tolerance_pct=float(data.get("tolerance_pct", 10.0)),
            alpha=float(data.get("alpha", 0.05)),
            baseline_scheme=data.get("baseline_scheme", "ecmp"),
            scenarios=[
                ScenarioSpec.from_dict(s) for s in data.get("scenarios", [])
            ],
        )
        suite.validate()
        return suite


def load_suite(path: Union[str, Path]) -> SuiteSpec:
    """Load a :class:`SuiteSpec` from a JSON or TOML file.

    The format is chosen by extension (``.toml`` parses with ``tomllib``,
    anything else as JSON).  Raises ``OSError`` on an unreadable file and
    ``ValueError`` on malformed content or an invalid spec.
    """
    path = Path(path)
    text = path.read_bytes()
    if path.suffix.lower() == ".toml":
        import tomllib

        try:
            data = tomllib.loads(text.decode("utf-8"))
        except tomllib.TOMLDecodeError as exc:
            raise ValueError(f"{path}: invalid TOML: {exc}") from exc
    else:
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    spec = SuiteSpec.from_dict(data)
    spec.expand()  # a point no ExperimentConfig accepts is an invalid spec
    return spec
