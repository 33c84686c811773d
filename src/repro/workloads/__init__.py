"""Traffic generation: empirical flow sizes and arrival processes."""

from repro import lazy_exports

_EXPORTS = {
    "WORKLOADS": "distributions",
    "EmpiricalCdf": "distributions",
    "data_mining_distribution": "distributions",
    "enterprise_distribution": "distributions",
    "flow_size_distribution": "distributions",
    "validate_workload": "distributions",
    "web_search_distribution": "distributions",
    "PoissonWorkload": "generator",
    "WorkloadConfig": "generator",
    "IncastWorkload": "incast",
    "IncastConfig": "incast",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
