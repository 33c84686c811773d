"""The runner's job model: what one unit of work is and how it is keyed.

A :class:`JobSpec` wraps either an
:class:`~repro.harness.config.ExperimentConfig` (``kind="experiment"``)
or a set of :func:`~repro.harness.incast.run_incast` keyword arguments
(``kind="incast"``) and derives a **content fingerprint**: a stable hash of
the canonicalized config fields plus :data:`SCHEMA_VERSION`.  The
fingerprint is the cache key — two specs with identical semantics always
hash identically (dict ordering, tuple-vs-list spellings and nested
dataclasses are all canonicalized away), and any change to the metric
payload schema or the execution semantics is signalled by bumping
:data:`SCHEMA_VERSION`, which invalidates every previously cached point.

This module deliberately imports nothing from :mod:`repro.harness` — the
spec is duck-typed over dataclasses — so the dependency between the harness
and the runner stays one-way (harness -> runner).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

#: Version tag folded into every fingerprint.  Bump when the metric payload
#: (:mod:`repro.harness.metrics`), the experiment semantics, or the cache
#: line format changes in a way that makes old cached results stale.
#: v2: chaos_* recovery metrics joined the standard payload and
#: ``ExperimentConfig`` grew the ``chaos`` fault-plan field.
#: v3: health_* self-healing metrics joined the payload and
#: ``ExperimentConfig`` grew ``health``/``health_config``/
#: ``failover_delay_s``.
#: v4: causal trace spans joined the cross-process telemetry state
#: (``dump_state`` grew a ``trace`` key merged on absorb).
#: v5: ``audit_violations`` joined the standard payload,
#: ``ExperimentConfig`` grew the ``audit`` mode field, and cache records
#: carry an optional serialized AuditReport under ``audit``.
#: v6: controlplane_* metrics joined the standard payload, ``FaultEvent``
#: grew the control-plane fields (host/rate/delay/duration/wipe), and
#: epoch guards changed echo-consumption semantics on faulted runs.
SCHEMA_VERSION = 6

#: the kinds of work the runner knows how to execute
JOB_KINDS = ("experiment", "incast")


def canonicalize(obj: Any) -> Any:
    """Reduce ``obj`` to plain, deterministically-ordered JSON-able data.

    Dataclasses become field dicts, mappings get string keys (sorted at
    serialization time), sequences become lists, and classes/callables
    (e.g. the switch-class knobs on a topology config) are replaced by
    their qualified names — identity by *what code would run*, not by
    object address.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: canonicalize(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, Mapping):
        return {str(k): canonicalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(item) for item in obj]
    if isinstance(obj, type):
        return f"{obj.__module__}.{obj.__qualname__}"
    if callable(obj):
        module = getattr(obj, "__module__", "?")
        qualname = getattr(obj, "__qualname__", repr(obj))
        return f"{module}.{qualname}"
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return repr(obj)


def fingerprint_payload(kind: str, payload: Any) -> str:
    """Stable hex fingerprint of ``(kind, payload)`` under SCHEMA_VERSION."""
    blob = json.dumps(
        {"kind": kind, "schema": SCHEMA_VERSION, "payload": canonicalize(payload)},
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


@dataclass(frozen=True)
class JobSpec:
    """One runnable, cacheable unit of a grid.

    Build specs with :meth:`experiment` or :meth:`incast` rather than the
    raw constructor; ``label`` is a human-readable tag for progress lines
    and ``repro cache list``.
    """

    kind: str = "experiment"
    #: the experiment point (``kind="experiment"`` jobs)
    config: Optional[Any] = None
    #: sorted ``run_incast`` keyword items (``kind="incast"`` jobs)
    params: Tuple[Tuple[str, Any], ...] = field(default=())
    label: str = ""

    @staticmethod
    def experiment(config, label: str = "") -> "JobSpec":
        """A spec that runs ``run_experiment(config)``."""
        if not label:
            label = (
                f"{config.scheme} load={config.load:g} seed={config.seed}"
                + (" asym" if config.asymmetric else "")
                + (" chaos" if getattr(config, "chaos", None) else "")
                + (" health" if getattr(config, "health", False) else "")
            )
        return JobSpec(kind="experiment", config=config, label=label)

    @staticmethod
    def incast(label: str = "", **params: Any) -> "JobSpec":
        """A spec that runs ``run_incast(**params)``."""
        items = tuple(sorted(params.items()))
        if not label:
            label = "incast " + " ".join(f"{k}={v}" for k, v in items)
        return JobSpec(kind="incast", params=items, label=label)

    @property
    def fingerprint(self) -> str:
        """The content fingerprint this spec is cached under.

        Hashed on the first read and kept on the instance (a
        ``dataclasses.replace`` copy hashes its own); a plain property,
        not ``functools.cached_property``, so it stays a property to code
        that wraps it by class.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is not None:
            return cached
        if self.kind == "experiment":
            if self.config is None:
                raise ValueError("experiment JobSpec needs a config")
            cached = fingerprint_payload(self.kind, self.config)
        elif self.kind == "incast":
            cached = fingerprint_payload(self.kind, dict(self.params))
        else:
            raise ValueError(
                f"unknown job kind {self.kind!r} (expected {JOB_KINDS})")
        object.__setattr__(self, "_fingerprint", cached)
        return cached

    def describe(self) -> Dict[str, Any]:
        """A short summary dict stored alongside cached results."""
        if self.kind == "experiment" and self.config is not None:
            info = {
                "scheme": self.config.scheme,
                "load": self.config.load,
                "seed": self.config.seed,
                "asymmetric": self.config.asymmetric,
            }
            chaos = getattr(self.config, "chaos", None)
            if chaos:
                info["chaos"] = chaos.describe()
            if getattr(self.config, "health", False):
                info["health"] = True
            return info
        return dict(self.params)
