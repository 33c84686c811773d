"""repro — a reproduction of "Clove: Congestion-Aware Load Balancing at the
Virtual Edge" (Katta et al., CoNEXT 2017).

The package implements Clove itself (:mod:`repro.core`), the baselines the
paper compares against (:mod:`repro.baselines`, :mod:`repro.transport.mptcp`)
and the packet-level simulation substrate standing in for the paper's
hardware testbed and NS2 (:mod:`repro.sim`, :mod:`repro.net`,
:mod:`repro.topology`, :mod:`repro.transport`, :mod:`repro.hypervisor`).

Quick start::

    from repro import ExperimentConfig, run_experiment

    result = run_experiment(ExperimentConfig(scheme="clove-ecn", load=0.7,
                                             asymmetric=True))
    print(result.collector.summary())

Importing a package loads none of its submodules: every ``__init__`` names
its public surface in an ``_EXPORTS`` table and resolves it on first use
through :func:`lazy_exports` (DESIGN.md, "Import layering").
"""

import importlib


def lazy_exports(namespace, exports):
    """PEP 562 hooks for a package whose public names live in submodules.

    ``namespace`` is the package's ``globals()`` and ``exports`` maps each
    public name to the submodule, relative to the package, that defines it.
    Returns the ``(__getattr__, __dir__)`` pair the package binds: the first
    use of a name imports its submodule and caches the object as a plain
    package global.  Any other public name is tried as a submodule
    (``import repro; repro.sim.engine``) before the usual AttributeError.
    """
    package = namespace["__name__"]

    def __getattr__(name):
        module = exports.get(name)
        if module is not None:
            value = getattr(importlib.import_module(f"{package}.{module}"), name)
            namespace[name] = value
            return value
        if not name.startswith("_"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__():
        return sorted(set(namespace).union(exports))

    return __getattr__, __dir__


__version__ = "1.0.0"

_EXPORTS = {
    "Simulator": "sim.engine",
    "RngRegistry": "sim.rng",
    "CloveEcnPolicy": "core.clove",
    "CloveIntPolicy": "core.clove",
    "CloveParams": "core.clove",
    "EdgeFlowletPolicy": "core.clove",
    "FlowletTable": "core.flowlet",
    "PathDiscovery": "core.discovery",
    "DiscoveryConfig": "core.discovery",
    "HealthConfig": "core.health",
    "PathHealthMonitor": "core.health",
    "WeightedPathTable": "core.weights",
    "EcmpPolicy": "baselines.ecmp",
    "PrestoPolicy": "baselines.presto",
    "CloveLatencyPolicy": "core.latency",
    "ExperimentConfig": "harness.experiment",
    "ExperimentResult": "harness.experiment",
    "SCHEMES": "harness.schemes",
    "run_experiment": "harness.experiment",
    "estimate_rtt": "harness.experiment",
    "sweep_loads": "harness.sweep",
    "Host": "hypervisor.host",
    "LoadBalancer": "hypervisor.policy",
    "VSwitch": "hypervisor.vswitch",
    "LeafSpineConfig": "topology.leafspine",
    "build_leaf_spine": "topology.leafspine",
    "build_fat_tree": "topology.fattree",
}

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
