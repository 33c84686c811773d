#!/usr/bin/env python3
"""Fault injection with the repro.chaos subsystem: a flap, measured.

Builds one declarative :class:`~repro.chaos.plan.FaultPlan` (a single 8 ms
outage of one L2-S2 cable mid-run), runs Clove-ECN and ECMP through the
same plan, and prints each scheme's recovery report — time-to-recover,
fault-window FCT inflation and fault-attributed packet loss.  The same
numbers are available from the CLI::

    repro run clove-ecn --chaos-preset flap
    repro run clove-ecn --chaos plan.json       # any serialized plan

Run:  python examples/chaos_flap.py
"""

from repro.chaos import flap, format_report, recovery_from_records, run_records
from repro.harness.experiment import ExperimentConfig, run_experiment


def main() -> None:
    plan = flap("L2", "S2", start=0.03, period=0.02, downtime=0.008, flaps=1)
    print("Fault plan:", plan.describe())
    print(plan.to_json())
    print()

    for scheme in ("clove-ecn", "ecmp"):
        config = ExperimentConfig(
            scheme=scheme, load=0.95, seed=1, jobs_per_client=260, chaos=plan,
        )
        result = run_experiment(config)
        records, _counters = run_records(result)
        report = recovery_from_records(records, bin_width=0.002)
        print(f"=== {scheme} ===")
        print(format_report(report))
        print()

    print("Clove's flowlet rerouting rides the outage out (time-to-recover"
          " 0); ECMP's goodput dips and takes extra bins to climb back.")


if __name__ == "__main__":
    main()
