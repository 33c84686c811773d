"""Open-loop client-server workload (Section 5's "empirical workload").

Each client host opens persistent TCP (or MPTCP) connections to randomly
chosen servers and submits jobs whose sizes are drawn from the flow-size
distribution, with exponential inter-arrival times tuned so the offered
load equals the requested fraction of the fabric's bisection bandwidth.

Jobs on a connection are serialized on its byte stream (they are requests
on a persistent connection), and a job's completion time is measured from
its *scheduled arrival* to the moment the receiver holds its last byte —
the paper's flow completion time for 50K jobs/connection runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Sequence

from repro.hypervisor.host import Host
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.workloads.distributions import EmpiricalCdf

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.config import ExperimentConfig


class PoissonWorkload:
    """Drives jobs over pre-opened connections between clients and servers."""

    def __init__(
        self,
        sim: Simulator,
        rng: RngRegistry,
        clients: Sequence[Host],
        servers: Sequence[Host],
        size_dist: EmpiricalCdf,
        bisection_bps: float,
        config: ExperimentConfig,
        collector: MetricsCollector,
        connection_factory: Callable[[Host, Host, int], object],
    ) -> None:
        """``config`` is the run's, whose ``load``, ``jobs_per_client``,
        ``connections_per_client``, ``pairing`` and ``warmup`` this reads.
        ``connection_factory(client, server, index)`` must return an
        object with ``start_flow(nbytes, on_complete)`` (a TCP
        :class:`~repro.transport.tcp.Connection` or an
        :class:`~repro.transport.mptcp.MptcpConnection`)."""
        if not clients or not servers:
            raise ValueError("need at least one client and one server")
        self.sim = sim
        self.config = config
        self.collector = collector
        self._size_rng = rng.stream("workload-sizes")
        self._arrival_rng = rng.stream("workload-arrivals")
        self._pair_rng = rng.stream("workload-pairs")
        self.size_dist = size_dist
        self.n_clients = len(clients)
        self.jobs_submitted = 0
        self.jobs_completed = 0

        # Offered load: total_rate = load * bisection; split evenly over
        # all connections.  mean interarrival = mean_size / per_conn_rate.
        mean_size = size_dist.analytic_mean()
        n_connections = len(clients) * config.connections_per_client
        per_connection_bps = config.load * bisection_bps / n_connections
        self.mean_interarrival = mean_size * 8.0 / per_connection_bps

        self._connections: List[object] = []
        servers = list(servers)
        for i, client in enumerate(clients):
            for c in range(config.connections_per_client):
                if config.pairing == "random":
                    server = self._pair_rng.choice(servers)
                else:
                    # connection c of client i: balanced, low variance
                    server = servers[(i + c) % len(servers)]
                connection = connection_factory(client, server, c)
                self._connections.append(connection)
        # Causal tracing: tracer plus each connection's forward 5-tuple
        # (filled in by attach_telemetry; stays off for NULL_TELEMETRY).
        self._tel_trace = None
        self._flow_keys: List[object] = [None] * len(self._connections)

    # ------------------------------------------------------------------
    def attach_telemetry(self, telemetry) -> None:
        """Open flow spans per job once the run's tracer is known."""
        trace = getattr(telemetry, "trace", None)
        if trace is None or not trace.enabled:
            return
        self._tel_trace = trace
        for index, connection in enumerate(self._connections):
            sender = getattr(connection, "sender", None)
            self._flow_keys[index] = getattr(sender, "flow", None)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the first arrival on every connection."""
        for index in range(len(self._connections)):
            self._schedule_arrival(index, first=True)

    def _schedule_arrival(self, index: int, first: bool = False) -> None:
        delay = self._arrival_rng.expovariate(1.0 / self.mean_interarrival)
        if first:
            delay += self.config.warmup
        self.sim.schedule(delay, self._submit_job, index)

    def _submit_job(self, index: int) -> None:
        if self.jobs_submitted >= self.total_jobs:
            return
        size = self.size_dist.sample(self._size_rng)
        arrival = self.sim.now
        self.jobs_submitted += 1
        record = self.collector.job_started(size, arrival)
        trace = self._tel_trace
        key = self._flow_keys[index] if trace is not None else None
        if trace is not None and key is not None:
            trace.flow_begin(key, arrival, bytes=size)

        def _on_complete() -> None:
            self.collector.job_finished(record, self.sim.now)
            if trace is not None and key is not None:
                trace.flow_end(key, self.sim.now, status="completed")
            self.jobs_completed += 1

        self._connections[index].start_flow(size, _on_complete)
        self._schedule_next(index)

    def _schedule_next(self, index: int) -> None:
        if self.jobs_submitted >= self.total_jobs:
            return
        delay = self._arrival_rng.expovariate(1.0 / self.mean_interarrival)
        self.sim.schedule(delay, self._submit_job, index)

    @property
    def total_jobs(self) -> int:
        return self.config.jobs_per_client * self.n_clients

    @property
    def done(self) -> bool:
        return self.jobs_completed >= self.total_jobs
