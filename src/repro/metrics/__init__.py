"""Measurement: flow-completion times."""

from repro import lazy_exports

_EXPORTS = {}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
