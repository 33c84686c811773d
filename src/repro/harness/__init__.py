"""Experiment assembly, load sweeps and per-figure tables."""

from repro import lazy_exports

_EXPORTS = {
    "ExperimentConfig": "experiment",
    "ExperimentResult": "experiment",
    "SCHEMES": "schemes",
    "run_experiment": "experiment",
    "estimate_rtt": "experiment",
    "sweep_loads": "sweep",
    "average_over_seeds": "sweep",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
