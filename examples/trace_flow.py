#!/usr/bin/env python3
"""Causal flow tracing with repro.telemetry.trace: one flap, explained.

Runs Clove-ECN and ECMP through the same pinned cable flap with span
tracing on, then walks the recorded causal structure: the summary of each
run, one flow's full tree (its flowlets and TCP episodes), the per-path
byte residency before and after the fault, and the residency diff that
shows Clove steering around the flapping cable while ECMP stays put.
Finally exports the Clove run as Chrome trace-event JSON — drag it into
https://ui.perfetto.dev or chrome://tracing to scrub the timeline.  The
same analyses are available offline from any ``--telemetry-out``
artifact::

    repro run clove-ecn --chaos-preset flap --telemetry-out run.jsonl.gz
    repro trace summary run.jsonl.gz
    repro trace flow run.jsonl.gz <run>:<sid>
    repro trace paths run.jsonl.gz
    repro trace diff clove.jsonl ecmp.jsonl
    repro trace chrome run.jsonl.gz trace.json

Run:  python examples/trace_flow.py
"""

from repro.chaos import preset
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.telemetry import Telemetry
from repro.telemetry.trace import (
    export_chrome,
    render_diff,
    render_flow,
    render_paths,
    render_summary,
)


def main() -> None:
    views = {}
    for scheme in ("clove-ecn", "ecmp"):
        tel = Telemetry()
        config = ExperimentConfig(
            scheme=scheme, load=0.7, seed=1, jobs_per_client=50,
            chaos=preset("flap"),
        )
        run_experiment(config, telemetry=tel)
        views[scheme] = tel.trace.view()

    clove = views["clove-ecn"]
    print(render_summary(clove))
    print()

    # The causal tree of the run's first flow: when it ran, which paths its
    # flowlets rode (with the weight-table fingerprint at decision time),
    # and any loss/ECN episodes it suffered.
    scope = clove.scopes()[0]
    first_flow = clove.spans(scope, "flow")[0]
    print(render_flow(clove, f"{scope}:{first_flow.sid}"))
    print()

    print(render_paths(clove))
    print()

    # The headline: byte residency shifts off the flapping cable for Clove,
    # while ECMP's static hashing never re-decides.
    print(render_diff(clove, views["ecmp"], label_a="clove-ecn",
                      label_b="ecmp"))
    print()

    n = export_chrome(clove, "trace_flow.json")
    print(f"wrote trace_flow.json ({n} Chrome trace events) — open it in "
          "Perfetto or chrome://tracing")


if __name__ == "__main__":
    main()
