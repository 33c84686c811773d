"""Discrete-event simulation engine.

This subpackage provides the event-driven substrate on which the packet-level
network model (:mod:`repro.net`), the transport stacks (:mod:`repro.transport`)
and the load balancers (:mod:`repro.core`, :mod:`repro.baselines`) all run.
It plays the role that the hardware testbed and NS2 played in the Clove paper.
"""

from repro import lazy_exports

_EXPORTS = {}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
