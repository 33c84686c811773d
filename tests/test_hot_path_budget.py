"""Per-packet call budget of the simulation hot path.

Host time on a shared machine wanders by 30%, so a per-packet regression
of a few calls cannot be seen in ``packets_per_s``.  The number of Python
function calls the interpreter makes per NIC packet can: for a pinned seed
it is the same on every run of one interpreter version.  This module counts
``call`` events under ``sys.setprofile`` over tiny runs — plain ECMP on
the symmetric fabric, Clove-ECN with one cable down, and the chaos flap
with path health and a stale-ECMP window, once plain and once with every
observer on (audit, telemetry, span trace) — and holds them under a
budget, together with the structural facts the budget relies on:

* no ``FlowKey.__eq__`` on the ECMP run (every flow-table and demux lookup
  hits by identity: outer keys are interned, endpoints registered under the
  very key object the peer stamps on its packets);
* a cached ECMP switch hop is ``Link._deliver`` -> ``Switch.receive`` ->
  ``Link.send``: no ``Link._settle`` or ``Simulator.at`` frame, and
  ``Switch.forward`` only on a forwarding-cache miss;
* a cached ECMP edge hop is the guest -> ``Host.send_from_guest`` ->
  ``VSwitch.transmit`` -> ``Link.send`` on the way out, and
  ``Link._deliver`` -> ``Host.receive`` -> ``VSwitch.receive_encapsulated``
  -> ``VSwitch._collect_and_deliver`` -> the guest endpoint on the way in:
  none of the wrapper frames in ``EDGE_WRAPPERS`` runs per packet;
* no run attaches a rate estimator to any link (nothing reads one);
* observing the flap costs at most ``OBSERVER_BUDGET`` calls per packet
  over the same run unobserved.

Counts differ between interpreter versions, so the budget applies only to
the one it was measured on.  A tier-1 run prints the per-function table of
the heaviest callees in its summary, from the same counted runs; run the
module directly for the table alone::

    PYTHONPATH=src python tests/test_hot_path_budget.py
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

# Runs import on first use what they select: the chaos engine (and its
# plans), path health, and for the observed run the auditor and the job
# fingerprint.  Importing them here keeps module execution out of the count.
import repro.chaos.engine  # noqa: F401
import repro.core.health  # noqa: F401
import repro.audit.auditor  # noqa: F401
import repro.runner.job  # noqa: F401
from repro.chaos.plan import preset
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.net.link import Link
from repro.net.packet import FlowKey
from repro.net.switch import Switch
from repro.sim.engine import Simulator
from repro.telemetry import Telemetry
from repro.telemetry.core import git_revision

#: interpreter the budget was measured on (CI pins it)
MEASURED_ON = (3, 11)

#: Python calls per NIC packet allowed on each configuration
BUDGET = {"ecmp": 31.0, "clove-ecn-asym": 33.0, "flap": 34.0, "observed": 36.0}

#: observed minus plain flap, calls per NIC packet
OBSERVER_BUDGET = 4.0

_FLAP = dict(scheme="clove-ecn", load=0.7, jobs_per_client=20, seed=1,
             chaos=preset("flap"), health=True, failover_delay_s=0.01)

#: name -> (config, whether a ``Telemetry(trace=True)`` scope observes it)
CONFIGS = {
    "ecmp": (ExperimentConfig(scheme="ecmp", jobs_per_client=8, seed=1), False),
    "clove-ecn-asym": (ExperimentConfig(
        scheme="clove-ecn", asymmetric=True, jobs_per_client=8, seed=1), False),
    "flap": (ExperimentConfig(**_FLAP), False),
    "observed": (ExperimentConfig(**_FLAP, audit="report"), True),
}

_EQ_CODE = FlowKey.__eq__.__code__

#: qualified names of the frames a cached ECMP edge hop no longer makes:
#: the NIC send and the guest demux are inline in the vswitch, the outer
#: header is attached and stripped there, a static-port policy is asked
#: once per flow, a policy that cannot report all paths congested is not
#: asked per ACK, and the guest TCP reads its own sequence state
EDGE_WRAPPERS = (
    "Host.nic_send", "Host.deliver_to_guest",
    "Packet.encapsulate", "Packet.decapsulate", "Packet.is_ack",
    "EcmpPolicy.select_source_port", "LoadBalancer.all_paths_congested",
    "TcpSender.flight_size",
)


def count_calls(config, observed=False):
    """Run ``config`` under a call counter; returns (result, calls per
    function code object, Python calls, C calls)."""
    per_code = Counter()
    c_calls = 0

    def profile(frame, event, _arg):
        nonlocal c_calls
        if event == "call":
            per_code[frame.f_code] += 1
        elif event == "c_call":
            c_calls += 1

    git_revision()      # cached; the first manifest of a process spawns git
    telemetry = Telemetry(trace=True) if observed else None
    sys.setprofile(profile)
    try:
        result = run_experiment(config, telemetry=telemetry)
    finally:
        sys.setprofile(None)
    return result, per_code, sum(per_code.values()), c_calls


def nic_packets(result):
    return sum(host.tx_nic_packets for host in result.hosts.values())


@pytest.fixture(scope="module")
def counted(request):
    if sys.version_info[:2] != MEASURED_ON:
        pytest.skip("call budget measured on Python %d.%d, which CI pins; "
                    "not checked on %d.%d"
                    % (MEASURED_ON + tuple(sys.version_info[:2])))
    # imported here: run as a script, this file cannot import ``tests``
    from tests.conftest import HOT_PATH_REPORT

    runs = {name: count_calls(*row) for name, row in CONFIGS.items()}
    # printed in the session's terminal summary (see conftest.py)
    request.config.stash[HOT_PATH_REPORT] = report(runs)
    return runs


@pytest.mark.parametrize("name", sorted(BUDGET))
def test_python_calls_per_packet_within_budget(counted, name):
    result, _per_code, py_calls, _c = counted[name]
    per_packet = py_calls / nic_packets(result)
    assert per_packet <= BUDGET[name], f"{name}: {per_packet:.1f} calls/packet"


def test_observers_cost_little_per_packet(counted):
    observed, plain = counted["observed"], counted["flap"]
    assert nic_packets(observed[0]) == nic_packets(plain[0])
    delta = (observed[2] - plain[2]) / nic_packets(plain[0])
    assert delta <= OBSERVER_BUDGET, f"observers add {delta:.1f} calls/packet"


def test_ecmp_lookups_hit_by_identity(counted):
    _result, per_code, _py, _c = counted["ecmp"]
    assert per_code[_EQ_CODE] == 0


def test_ecmp_hop_is_three_frames(counted):
    result, per_code, _py, _c = counted["ecmp"]
    packets = nic_packets(result)
    assert per_code[Link._settle.__code__] == 0
    assert per_code[Simulator.at.__code__] / packets < 0.1
    assert per_code[Switch.forward.__code__] / packets < 0.1


def test_edge_hop_frames(counted):
    result, per_code, _py, _c = counted["ecmp"]
    packets = nic_packets(result)
    by_name = Counter()
    for code, calls in per_code.items():
        by_name[code.co_qualname] += calls
    for name in EDGE_WRAPPERS:
        assert by_name[name] / packets < 0.1, name


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_no_rate_estimator_without_a_reader(counted, name):
    result = counted[name][0]
    assert all(link.dre is None for link in result.net.all_links())


def report(runs, top=15):
    """The per-callee table of each counted run, then the observer delta."""
    lines = [f"Python {sys.version.split()[0]}"]
    per_packet = {}
    for name, (result, per_code, py_calls, c_calls) in runs.items():
        packets = nic_packets(result)
        per_packet[name] = py_calls / packets
        lines.append(f"{name}: {packets} NIC packets, {py_calls / packets:.1f} "
                     f"Python calls and {c_calls / packets:.1f} C calls per "
                     f"packet (budget {BUDGET[name]:.0f})")
        for code, calls in per_code.most_common(top):
            where = f"{Path(code.co_filename).name}:{code.co_qualname}"
            lines.append(f"  {calls / packets:7.2f}  {where}")
    lines.append(f"observers on the flap: "
                 f"{per_packet['observed'] - per_packet['flap']:+.1f} "
                 f"calls/packet (budget {OBSERVER_BUDGET:+.0f})")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    print(report({name: count_calls(*row) for name, row in CONFIGS.items()}),
          end="")
