#!/usr/bin/env python3
"""Self-healing dataplane: quarantine, re-discovery, and probation restore.

One L2-S2 cable dies 30 ms into the run and comes back 12 ms later, but the
fabric's routing agent is slow (``failover_delay_s``): switches keep hashing
flows onto the dead cable long after it fails — the stale-ECMP blackhole
Clove's edge cannot see via ECN alone.  The same experiment runs twice:

* without the monitor, every flowlet hashed onto the dead path blackholes
  until the routing agent catches up;
* with :class:`~repro.core.health.PathHealthMonitor` enabled, liveness
  probes declare the path dead after three losses, the weight table
  respreads its share over the survivors, targeted re-discovery re-learns
  the mapping, and the healed path is re-admitted through graduated
  probation (10% -> 50% -> full weight).

The same comparison is available from the CLI::

    repro run clove-ecn --chaos-preset flap --health

Run:  python examples/self_healing.py
"""

from repro.chaos import (
    flap,
    format_health_report,
    format_report,
    health_from_records,
    recovery_from_records,
    run_records,
)
from repro.core.health import HealthConfig
from repro.harness.experiment import ExperimentConfig, run_experiment

#: aggressive probing so detection fits a 12 ms outage (the defaults are
#: tuned for production-like cadences, not a 100 ms simulation)
FAST = HealthConfig(
    probe_interval=1e-3,
    probe_timeout=1.2e-3,
    probation_window=2e-3,
    rediscovery_backoff=2e-3,
    rediscovery_max_backoff=16e-3,
)


def run_once(health: bool):
    config = ExperimentConfig(
        scheme="clove-ecn", load=0.3, seed=2,
        jobs_per_client=450, clients_per_leaf=2, connections_per_client=2,
        chaos=flap(start=0.03, period=0.042, downtime=0.012, flaps=1),
        failover_delay_s=1.0,   # routing repair far slower than the run
        health=health,
        health_config=FAST if health else None,
    )
    return run_experiment(config)


def main() -> None:
    print("One cable flaps (down 30 ms..42 ms); routing repair never "
          "arrives.\n")

    reports = {}
    for health in (False, True):
        label = "health monitor ON" if health else "health monitor OFF"
        result = run_once(health)
        records, counters = run_records(result)
        recovery = recovery_from_records(records)
        completed = len(result.collector.completed())
        print(f"=== {label} ===")
        print(format_report(recovery))
        print(f"jobs completed    : {completed}/{len(result.collector.jobs)}")
        if health:
            health_report = health_from_records(records, counters)
            print(format_health_report(health_report))
            reports["health"] = health_report
        reports["blackholed" if not health else "blackholed_h"] = (
            recovery.blackholed_packets
        )
        print()

    saved = reports["blackholed"] - reports["blackholed_h"]
    print(f"The monitor quarantined the dead path in "
          f"{reports['health'].detection_latency_s * 1e3:.2f} ms and spared "
          f"{saved} packets from the blackhole; after the cable healed, "
          f"{reports['health'].paths_restored} path(s) earned back full "
          f"weight through probation.")


if __name__ == "__main__":
    main()
