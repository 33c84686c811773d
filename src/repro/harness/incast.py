"""Incast experiment assembly (Figure 7 / Section 5.3)."""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro.harness.experiment import ExperimentConfig, assemble, prewarm_discovery
from repro.hypervisor.host import Host
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.workloads.incast import IncastConfig, IncastWorkload


def run_incast(
    scheme: str = "clove-ecn",
    fanout: int = 8,
    seed: int = 1,
    n_requests: int = 20,
    total_bytes: int = 1_000_000,
    mptcp_subflows: int = 4,
    min_rto: float = 5e-3,
    telemetry: Optional[Telemetry] = None,
    stats_out: Optional[Dict[str, float]] = None,
) -> float:
    """Run the partition-aggregate workload; returns client goodput (bps).

    One client on leaf 1 requests ``total_bytes`` split over ``fanout``
    servers on leaf 2, repeatedly; all servers respond simultaneously,
    stressing the client's access link exactly as in the paper's incast
    experiment.  A ``telemetry`` scope, when given, instruments the run the
    same way :func:`~repro.harness.experiment.run_experiment` does.

    ``stats_out``, when given, is filled with the run's raw throughput
    counters (``packets`` = NIC-injected, ``events``, ``sim_s``) for the
    benchmark tier.
    """
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    built = assemble(ExperimentConfig(scheme=scheme, seed=seed, min_rto=min_rto,
                                      mptcp_subflows=mptcp_subflows), tel)
    sim, net, hosts = built.sim, built.net, built.hosts

    client = hosts["h1_0"]
    servers = [hosts[n] for n in sorted(hosts) if n.startswith("h2_")]

    port_counter = [30000]

    def factory(server: Host, dst_client: Host, index: int):
        port_counter[0] += 16
        return built.open_connection(server, dst_client, port_counter[0], 80)

    prewarm_discovery((server, client) for server in servers)

    manifest = None
    if tel.enabled:
        if tel.trace.enabled:
            from repro.runner.job import fingerprint_payload

            tel.trace.begin_run(fingerprint_payload("incast", dict(
                scheme=scheme, fanout=fanout, seed=seed,
                n_requests=n_requests, total_bytes=total_bytes,
                mptcp_subflows=mptcp_subflows, min_rto=min_rto,
            )))
        tel.instrument(sim=sim, net=net, hosts=hosts)
        manifest = tel.manifest(
            run="incast", scheme=scheme, seed=seed, fanout=fanout,
            n_requests=n_requests, total_bytes=total_bytes,
        )
        tel.events.emit("run.start", sim.now, scheme=scheme, fanout=fanout,
                        seed=seed)

    workload = IncastWorkload(
        sim, built.rng, client, servers,
        IncastConfig(
            total_bytes=total_bytes,
            fanout=fanout,
            n_requests=n_requests,
            start_time=0.02,
        ),
        factory,
    )
    finished = []
    wall_start = time.perf_counter()
    workload.start(lambda: finished.append(sim.now))
    # Run until all requests complete (bounded safety horizon).
    while not finished and sim.now < 120.0:
        sim.run(until=sim.now + 0.1)
        if sim.peek_time() is None:
            break
    goodput = workload.goodput_bps()
    if stats_out is not None:
        stats_out["packets"] = sum(h.tx_nic_packets for h in hosts.values())
        stats_out["events"] = sim.events_processed
        stats_out["sim_s"] = sim.now
    if tel.enabled:
        tel.observe_network(net)
        tel.observe_hosts(hosts)
        if manifest is not None:
            manifest["wall_s"] = time.perf_counter() - wall_start
            manifest["sim_duration"] = sim.now
            manifest["sim_events"] = sim.events_processed
            manifest["goodput_bps"] = goodput
        if tel.trace.enabled:
            tel.trace.finish_run(sim.now)
    return goodput
