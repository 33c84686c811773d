"""Incast experiment assembly (Figure 7 / Section 5.3)."""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from repro.harness.config import incast_configs
from repro.harness.experiment import assemble, prewarm_discovery
from repro.hypervisor.host import Host
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.workloads.incast import INCAST_AXES, IncastWorkload


def run_incast(
    scheme: Optional[str] = None,
    *,
    seed: int = 1,
    telemetry: Optional[Telemetry] = None,
    stats_out: Optional[Dict[str, float]] = None,
    **knobs: Any,
) -> float:
    """Run the partition-aggregate workload; returns client goodput (bps).

    One client on leaf 1 requests ``total_bytes`` split over ``fanout``
    servers on leaf 2, repeatedly; all servers respond simultaneously,
    stressing the client's access link exactly as in the paper's incast
    experiment.  ``scheme`` (None: the config's default) and ``knobs``
    are the point's :data:`~repro.workloads.incast.INCAST_AXES` keywords.  A
    ``telemetry`` scope, when given, instruments the run the same way
    :func:`~repro.harness.experiment.run_experiment` does.

    ``stats_out``, when given, is filled with the run's raw throughput
    counters (``packets`` = NIC-injected, ``events``, ``sim_s``) for the
    benchmark tier.
    """
    if scheme is not None:
        knobs["scheme"] = scheme
    config, incast = incast_configs(seed, **knobs)
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    built = assemble(config, tel)
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

            filled = {**vars(config), **vars(incast)}
            tel.trace.begin_run(fingerprint_payload("incast", dict(
                {name: filled[name] for name in INCAST_AXES}, seed=seed)))
        tel.instrument(sim=sim, net=net, hosts=hosts)
        manifest = tel.manifest(
            run="incast", scheme=config.scheme, seed=seed,
            fanout=incast.fanout, n_requests=incast.n_requests,
            total_bytes=incast.total_bytes,
        )
        tel.events.emit("run.start", sim.now, scheme=config.scheme,
                        fanout=incast.fanout, seed=seed)

    workload = IncastWorkload(sim, built.rng, client, servers, incast, factory)
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
