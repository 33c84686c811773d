"""Incast (partition-aggregate) workload of Section 5.3.

A single client repeatedly requests a fixed amount of data split evenly
over ``fanout`` randomly chosen servers; all servers start transmitting at
the same instant, stressing the client's access-link queue.  The reported
metric is the client's average goodput over many such requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Sequence

from repro.knobs import COUNT, check, knob, knobs

if TYPE_CHECKING:  # pragma: no cover
    from repro.hypervisor.host import Host
    from repro.sim.engine import Simulator
    from repro.sim.rng import RngRegistry


@dataclass
class IncastConfig:
    """Parameters of the incast workload."""

    # an incast point's defaults (the paper's requests are 10 MB)
    total_bytes: int = knob(
        1_000_000, "bytes per request, split evenly over its servers",
        COUNT, flag="--bytes")
    fanout: int = knob(8, "servers per request (at most the servers of "
                          "leaf 2)", COUNT)
    n_requests: int = knob(20, "requests, one after another", COUNT,
                           flag="--requests")
    start_time: float = 0.0
    request_overhead: float = 0.0      # think time between requests

    def __post_init__(self) -> None:
        check(self)


#: the knobs of one incast point (``run_incast``'s keywords besides the
#: seed, a suite incast scenario's axes): the ExperimentConfig knobs it sets,
#: its fabric being otherwise the default, then the workload's own
INCAST_AXES = ("scheme", "mptcp_subflows", "min_rto") + tuple(
    f.name for f in knobs(IncastConfig))


class IncastWorkload:
    """Partition-aggregate traffic from ``servers`` into one ``client``."""

    def __init__(
        self,
        sim: Simulator,
        rng: RngRegistry,
        client: Host,
        servers: Sequence[Host],
        config: IncastConfig,
        connection_factory: Callable[[Host, Host, int], object],
    ) -> None:
        if config.fanout > len(servers):
            raise ValueError("fanout must be at most the number of servers")
        self.sim = sim
        self.config = config
        self.client = client
        self.servers = list(servers)
        self._rng = rng.stream("incast")
        #: one persistent connection per server (server -> client direction)
        self._connections: Dict[str, object] = {
            server.name: connection_factory(server, client, i)
            for i, server in enumerate(self.servers)
        }
        self.requests_completed = 0
        self.bytes_received = 0
        self.started_at: float = 0.0
        self.finished_at: float = 0.0
        self._pending = 0
        self._done_callback: Callable[[], None] = lambda: None

    # ------------------------------------------------------------------
    def start(self, on_done: Callable[[], None] = lambda: None) -> None:
        """Begin issuing requests; ``on_done`` fires after the last one."""
        self._done_callback = on_done
        self.started_at = self.config.start_time
        self.sim.schedule(self.config.start_time, self._issue_request)

    def _issue_request(self) -> None:
        chosen = self._rng.sample(self.servers, self.config.fanout)
        share = self.config.total_bytes // self.config.fanout
        self._pending = len(chosen)
        for server in chosen:
            connection = self._connections[server.name]
            connection.start_flow(share, self._on_flow_complete)

    def _on_flow_complete(self) -> None:
        self._pending -= 1
        self.bytes_received += self.config.total_bytes // self.config.fanout
        if self._pending > 0:
            return
        self.requests_completed += 1
        if self.requests_completed >= self.config.n_requests:
            self.finished_at = self.sim.now
            self._done_callback()
            return
        self.sim.schedule(self.config.request_overhead, self._issue_request)

    # ------------------------------------------------------------------
    def goodput_bps(self) -> float:
        """Average receive goodput on the client across all requests."""
        elapsed = self.finished_at - self.started_at
        if elapsed <= 0:
            return 0.0
        return self.bytes_received * 8.0 / elapsed
