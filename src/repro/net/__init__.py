"""Packet-level network substrate.

Models the physical underlay the Clove paper assumes: store-and-forward
switches running static-hash ECMP, drop-tail egress queues that mark ECN
above a threshold, links with serialization + propagation delay, TTL
handling (so traceroute works), and optional In-band Network Telemetry.
"""

from repro import lazy_exports

_EXPORTS = {
    "Packet": "packet",
    "FlowKey": "packet",
    "EcmpHasher": "hashing",
    "DropTailQueue": "queue",
    "Link": "link",
    "Switch": "switch",
    "DiscountingRateEstimator": "dre",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
