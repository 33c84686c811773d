"""Packet and header model.

A packet carries up to two header layers, mirroring the overlay deployment
the paper targets:

* the **inner** 5-tuple — the guest VM's TCP segment headers, and
* the **outer** (encapsulation) 5-tuple — the STT-style header added by the
  source hypervisor's virtual switch.  Physical switches hash and route on
  the outer header only; this is the knob Clove turns.

The STT *context* field is modelled explicitly (``stt_echo_port``,
``stt_echo_ecn``, ``stt_echo_util``): the destination hypervisor uses those
bits on reverse traffic to reflect congestion information back to the
source, exactly as in Figure 2 / Section 4 of the paper.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple

#: Conventional sizes (bytes).
MTU = 1500
MSS = 1460
HEADER_BYTES = 40          # inner TCP/IP headers
ENCAP_BYTES = 54           # outer IP + TCP-like STT header + context
ACK_BYTES = HEADER_BYTES   # pure ACK payload-less segment

#: Well-known STT tunnel destination port (fixed for all tunnels).
STT_DST_PORT = 7471

_packet_ids = itertools.count(1)


class FlowKey:
    """A transport 5-tuple.  Hashable so it can key flow/flowlet tables.

    Immutable, with the tuple view and its hash precomputed at construction:
    a FlowKey keys every per-packet table in the pipeline (flowlet caches,
    endpoint demux, congestion state, ECMP hashing), so it is hashed far
    more often than it is built.  The hash matches the frozen-dataclass
    definition this class replaced (``hash`` of the field tuple).
    """

    __slots__ = ("src_ip", "dst_ip", "src_port", "dst_port", "proto",
                 "_tuple", "_hash")

    def __init__(self, src_ip: int, dst_ip: int, src_port: int,
                 dst_port: int, proto: int = 6) -> None:
        fill = object.__setattr__
        fill(self, "src_ip", src_ip)
        fill(self, "dst_ip", dst_ip)
        fill(self, "src_port", src_port)
        fill(self, "dst_port", dst_port)
        fill(self, "proto", proto)
        astuple = (src_ip, dst_ip, src_port, dst_port, proto)
        fill(self, "_tuple", astuple)
        fill(self, "_hash", hash(astuple))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("FlowKey is immutable")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: Any) -> Any:
        if isinstance(other, FlowKey):
            return self._tuple == other._tuple
        return NotImplemented

    def __repr__(self) -> str:
        return (
            f"FlowKey(src_ip={self.src_ip}, dst_ip={self.dst_ip}, "
            f"src_port={self.src_port}, dst_port={self.dst_port}, "
            f"proto={self.proto})"
        )

    def reversed(self) -> "FlowKey":
        """The 5-tuple of traffic flowing the opposite direction."""
        return FlowKey(self.dst_ip, self.src_ip, self.dst_port, self.src_port, self.proto)

    def as_tuple(self) -> Tuple[int, int, int, int, int]:
        """The 5-tuple as a plain tuple (hashing/iteration helper)."""
        return self._tuple


class Packet:
    """A simulated packet.

    Only one object exists per packet end-to-end; switches mutate TTL/ECN
    fields in place as real switches would.  ``size`` is the wire size in
    bytes including all headers currently attached.
    """

    __slots__ = (
        "pid", "inner", "outer", "size", "payload_bytes",
        "seq", "ack", "flags", "ttl",
        "ect", "ce",
        "clove_epoch",
        "stt_echo_port", "stt_echo_ecn", "stt_echo_util", "stt_echo_seen",
        "stt_echo_epoch",
        "int_enabled", "int_max_util",
        "flowcell_id", "flowcell_seq",
        "tsecr", "sack_blocks",
        "created_at", "meta",
    )

    def __init__(
        self,
        inner: FlowKey,
        payload_bytes: int = 0,
        seq: int = 0,
        ack: int = -1,
        flags: str = "",
        created_at: float = 0.0,
    ) -> None:
        self.pid: int = next(_packet_ids)
        self.inner = inner
        self.outer: Optional[FlowKey] = None
        self.payload_bytes = payload_bytes
        self.size = payload_bytes + HEADER_BYTES
        self.seq = seq
        self.ack = ack
        self.flags = flags                # e.g. "S", "SA", "F", "" for data
        self.ttl = 64
        # ECN bits of the *outer* IP header once encapsulated (or inner when
        # running without an overlay).
        self.ect = False                  # ECN-Capable Transport
        self.ce = False                   # Congestion Experienced
        # Weight-table epoch of the sending hypervisor for this packet's
        # destination; echoes reflect it back so the sender can reject
        # feedback that predates a respread or vswitch restart.
        self.clove_epoch: Optional[int] = None
        # STT context bits (set by the destination hypervisor on reverse
        # traffic to reflect forward-path congestion back to the source).
        self.stt_echo_port: Optional[int] = None
        self.stt_echo_ecn = False
        self.stt_echo_util: Optional[float] = None
        # When the destination hypervisor first saw CE on this path (sim
        # time) — lets the source measure its detection->reaction latency.
        self.stt_echo_seen: Optional[float] = None
        # Epoch the echoed path state was learned under (see clove_epoch).
        self.stt_echo_epoch: Optional[int] = None
        # In-band Network Telemetry.
        self.int_enabled = False
        self.int_max_util = 0.0
        # Presto flowcell metadata (carried in the encapsulation header).
        self.flowcell_id: Optional[int] = None
        self.flowcell_seq: Optional[int] = None
        # TCP option fields carried on ACKs.  These are slots rather than
        # ``meta`` entries so that a pure ACK keeps an *empty* meta dict —
        # the hypervisor receive path skips its whole control-message demux
        # on falsy meta, and ACKs are roughly half of all packets.
        self.tsecr: Optional[float] = None
        self.sack_blocks: Optional[List[Tuple[int, int]]] = None
        self.created_at = created_at
        #: Free-form scratch space for protocol extensions (CONGA tags, ...).
        self.meta: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Convenience views
    # ------------------------------------------------------------------
    @property
    def route_key(self) -> FlowKey:
        """The 5-tuple physical switches hash on (outer if present)."""
        return self.outer if self.outer is not None else self.inner

    @property
    def is_ack(self) -> bool:
        return self.payload_bytes == 0 and self.ack >= 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        enc = f" outer={self.outer.as_tuple()}" if self.outer else ""
        return (
            f"Packet(#{self.pid} {self.inner.as_tuple()}{enc} seq={self.seq} "
            f"ack={self.ack} len={self.payload_bytes} flags={self.flags!r})"
        )

