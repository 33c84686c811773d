"""Guest-VM transport stacks.

The paper keeps tenant VM stacks unmodified; every single-path scheme runs
the one guest TCP of :mod:`repro.transport.tcp`.  MPTCP
(:mod:`repro.transport.mptcp`) models the host-based alternative the paper
compares against.
"""

from repro import lazy_exports

_EXPORTS = {}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
