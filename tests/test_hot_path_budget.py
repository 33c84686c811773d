"""Per-packet call budget of the simulation hot path.

Host time on a shared machine wanders by 30%, so a per-packet regression
of a few calls cannot be seen in ``packets_per_s``.  The number of Python
function calls the interpreter makes per NIC packet can: for a pinned seed
it is the same on every run of one interpreter version.  This module counts
``call`` events under ``sys.setprofile`` over two tiny runs — plain ECMP on
the symmetric fabric and Clove-ECN with one cable down — and holds them
under a budget, together with two structural facts the budget relies on:

* no ``FlowKey.__eq__`` on the ECMP run (every flow-table and demux lookup
  hits by identity: outer keys are interned, endpoints registered under the
  very key object the peer stamps on its packets);
* neither run attaches a rate estimator to any link (nothing reads one).

Counts differ between interpreter versions, so the budget applies only to
the one it was measured on.  Run the module directly for the per-function
table of the heaviest callees::

    PYTHONPATH=src python tests/test_hot_path_budget.py
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

# The asymmetric run imports the chaos engine (and its plans) on first use;
# importing it here keeps module execution out of the count.
import repro.chaos.engine  # noqa: F401
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.net.packet import FlowKey

#: interpreter the budget was measured on
MEASURED_ON = (3, 11)

#: Python calls per NIC packet allowed on each configuration
BUDGET = {"ecmp": 58.0, "clove-ecn-asym": 54.0}

CONFIGS = {
    "ecmp": ExperimentConfig(scheme="ecmp", jobs_per_client=8, seed=1),
    "clove-ecn-asym": ExperimentConfig(
        scheme="clove-ecn", asymmetric=True, jobs_per_client=8, seed=1),
}

_EQ_CODE = FlowKey.__eq__.__code__


def count_calls(config):
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

    sys.setprofile(profile)
    try:
        result = run_experiment(config)
    finally:
        sys.setprofile(None)
    return result, per_code, sum(per_code.values()), c_calls


def nic_packets(result):
    return sum(host.tx_nic_packets for host in result.hosts.values())


@pytest.fixture(scope="module")
def counted():
    if sys.version_info[:2] != MEASURED_ON:
        pytest.skip("call budget measured on Python %d.%d" % MEASURED_ON)
    return {name: count_calls(config) for name, config in CONFIGS.items()}


@pytest.mark.parametrize("name", sorted(BUDGET))
def test_python_calls_per_packet_within_budget(counted, name):
    result, _per_code, py_calls, _c = counted[name]
    per_packet = py_calls / nic_packets(result)
    assert per_packet <= BUDGET[name], f"{name}: {per_packet:.1f} calls/packet"


def test_ecmp_lookups_hit_by_identity(counted):
    _result, per_code, _py, _c = counted["ecmp"]
    assert per_code[_EQ_CODE] == 0


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_no_rate_estimator_without_a_reader(counted, name):
    result = counted[name][0]
    assert all(link.dre is None for link in result.net.all_links())


def _table(name, config, top=15):
    result, per_code, py_calls, c_calls = count_calls(config)
    packets = nic_packets(result)
    print(f"{name}: {packets} NIC packets, {py_calls / packets:.1f} Python "
          f"calls and {c_calls / packets:.1f} C calls per packet "
          f"(budget {BUDGET[name]:.0f})")
    for code, calls in per_code.most_common(top):
        where = f"{Path(code.co_filename).name}:{code.co_qualname}"
        print(f"  {calls / packets:7.2f}  {where}")


if __name__ == "__main__":
    print(f"Python {sys.version.split()[0]}")
    for name, config in CONFIGS.items():
        _table(name, config)
