"""Guest-VM transport stacks.

The paper keeps tenant VM stacks unmodified; the default stack here is TCP
NewReno (:mod:`repro.transport.tcp`).  MPTCP (:mod:`repro.transport.mptcp`)
and DCTCP (:mod:`repro.transport.dctcp`) model the host-based alternatives
the paper compares against / discusses.
"""

from repro import lazy_exports

_EXPORTS = {
    "TcpSender": "tcp",
    "TcpReceiver": "tcp",
    "Connection": "tcp",
    "open_connection": "tcp",
    "DctcpSender": "dctcp",
    "MptcpConnection": "mptcp",
    "open_mptcp_connection": "mptcp",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
