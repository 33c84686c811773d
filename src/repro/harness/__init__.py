"""Experiment assembly: one run, one incast run, their metric payload and
text rendering (grids of runs are :mod:`repro.suite` scenarios)."""

from repro import lazy_exports

_EXPORTS = {
    "ExperimentConfig": "config",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
