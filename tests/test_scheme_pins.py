"""Every scheme's simulated output, pinned bit for bit.

``benchmarks/perf/expected.json`` pins only ``ecmp`` and ``clove-ecn``.
This grid covers all nine schemes on the symmetric and the asymmetric
fabric, plus the incast harness for the schemes whose switches or edge read
link utilization (``conga``, ``clove-int``) and the headline ``clove-ecn``.
A change to the data path that is meant to be a pure speed-up must leave
every row identical: events processed, NIC packets, flows completed and the
exact ``repr`` of the summed flow completion times.

Re-record (only when a change is *meant* to alter what is simulated)::

    PYTHONPATH=src python tests/test_scheme_pins.py --record
"""

import json
import sys
from pathlib import Path

import pytest

from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.incast import run_incast
from repro.harness.schemes import SCHEMES

PINS = Path(__file__).with_name("scheme_pins.json")

LOAD = 0.6
JOBS_PER_CLIENT = 5
INCAST_SCHEMES = ("clove-ecn", "clove-int", "conga")


def experiment_row(scheme: str, asymmetric: bool) -> dict:
    result = run_experiment(ExperimentConfig(
        scheme=scheme, load=LOAD, jobs_per_client=JOBS_PER_CLIENT,
        asymmetric=asymmetric, seed=1))
    fcts = result.collector.fcts()
    return {
        "events": result.wall_events,
        "packets": sum(h.tx_nic_packets for h in result.hosts.values()),
        "flows_completed": len(fcts),
        "fct_sum": repr(sum(fcts)),
    }


def incast_row(scheme: str) -> dict:
    stats = {}
    goodput = run_incast(scheme=scheme, fanout=4, seed=1, n_requests=3,
                         total_bytes=400_000, stats_out=stats)
    return {
        "events": int(stats["events"]),
        "packets": int(stats["packets"]),
        "goodput_bps": repr(goodput),
    }


def _cases():
    for scheme in SCHEMES:
        for asymmetric in (False, True):
            yield f"{scheme}/{'asym' if asymmetric else 'sym'}", \
                lambda s=scheme, a=asymmetric: experiment_row(s, a)
    for scheme in INCAST_SCHEMES:
        yield f"incast/{scheme}", lambda s=scheme: incast_row(s)


CASES = dict(_cases())


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


def test_grid_covers_every_scheme(pins):
    assert sorted(pins) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_scheme_output_pinned(pins, case):
    assert CASES[case]() == pins[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_scheme_pins.py --record")
    recorded = {case: run() for case, run in sorted(CASES.items())}
    PINS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(recorded)} rows to {PINS}")
