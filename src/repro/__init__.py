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
"""

from repro.sim import Simulator, RngRegistry
from repro.core import (
    CloveEcnPolicy,
    CloveIntPolicy,
    CloveParams,
    EdgeFlowletPolicy,
    FlowletTable,
    HealthConfig,
    PathDiscovery,
    PathHealthMonitor,
    DiscoveryConfig,
    WeightedPathTable,
)
from repro.baselines import EcmpPolicy, PrestoPolicy
from repro.core.latency import CloveLatencyPolicy
from repro.harness import (
    ExperimentConfig,
    ExperimentResult,
    SCHEMES,
    run_experiment,
    estimate_rtt,
    sweep_loads,
)
from repro.hypervisor import Host, LoadBalancer, VSwitch
from repro.topology import LeafSpineConfig, build_leaf_spine, build_fat_tree

__version__ = "1.0.0"

__all__ = [
    "Simulator",
    "RngRegistry",
    "CloveEcnPolicy",
    "CloveIntPolicy",
    "CloveParams",
    "EdgeFlowletPolicy",
    "FlowletTable",
    "PathDiscovery",
    "DiscoveryConfig",
    "HealthConfig",
    "PathHealthMonitor",
    "WeightedPathTable",
    "EcmpPolicy",
    "PrestoPolicy",
    "CloveLatencyPolicy",
    "ExperimentConfig",
    "ExperimentResult",
    "SCHEMES",
    "run_experiment",
    "estimate_rtt",
    "sweep_loads",
    "Host",
    "LoadBalancer",
    "VSwitch",
    "LeafSpineConfig",
    "build_leaf_spine",
    "build_fat_tree",
    "__version__",
]
