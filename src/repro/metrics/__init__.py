"""Measurement: flow-completion times and network statistics."""

from repro import lazy_exports

_EXPORTS = {
    "MetricsCollector": "collector",
    "JobRecord": "collector",
    "FctSummary": "collector",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
