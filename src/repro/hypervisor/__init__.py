"""The hypervisor edge: hosts, virtual switches and the LB plug-in point.

Each simulated :class:`~repro.hypervisor.host.Host` is a hypervisor with one
guest stack.  Its :class:`~repro.hypervisor.vswitch.VSwitch` encapsulates
guest traffic STT-style, lets a pluggable
:class:`~repro.hypervisor.policy.LoadBalancer` choose the outer source port
(the paper's indirect source routing), reflects ECN/INT telemetry back to
senders in the STT context bits, and masks underlay ECN from guests.
"""

from repro import lazy_exports

_EXPORTS = {
    "LoadBalancer": "policy",
    "PathFeedback": "policy",
    "VSwitch": "vswitch",
    "Host": "host",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
