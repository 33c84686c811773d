"""The vswitch's static-port cache against the per-packet port choice.

A policy that declares ``static_ports`` (ECMP: the outer source port is a
hash of the inner 5-tuple) is asked for a flow's port once; every later
packet of the flow reuses the interned outer key the vswitch cached under
the inner key.  ``PerPacketEcmp`` declares ``static_ports = False``, so the
vswitch asks it on every packet, which is the reference path.

Hypothesis draws small runs of the schemes that put ECMP at the edge (ECMP
itself, MPTCP's subflows, CONGA and LetFlow in the fabric).  The cached
and the reference run must report the same ``standard_metrics`` payload
and put the same packets on the wire: every ``Link.send``, NIC sends
included, with its outer key, size, ECN bits, epoch stamp and echo fields.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

import repro.baselines.ecmp as ecmp_module
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.metrics import standard_metrics
from repro.hypervisor.policy import LoadBalancer
from repro.net.link import Link


class PerPacketEcmp(ecmp_module.EcmpPolicy):
    """ECMP asked on every packet: the vswitch keeps no port cache."""

    static_ports = False


def _wire_record(packet, link):
    outer = packet.outer
    return (
        link.sim.now, link.name, packet.inner.as_tuple(),
        outer.as_tuple() if outer is not None else None,
        packet.size, packet.seq, packet.ack, packet.flags,
        packet.ect, packet.ce, packet.clove_epoch,
        packet.stt_echo_port, packet.stt_echo_ecn, packet.stt_echo_util,
        packet.stt_echo_epoch, packet.stt_echo_seen,
    )


def run(config, policy_cls):
    """(metrics payload with NaNs as text, every packet sent on a link)."""
    wire = []
    send = Link.send

    def recording_send(link, packet):
        wire.append(_wire_record(packet, link))
        return send(link, packet)

    with mock.patch.object(ecmp_module, "EcmpPolicy", policy_cls), \
            mock.patch.object(Link, "send", recording_send):
        result = run_experiment(config)
    metrics = {key: repr(value)
               for key, value in standard_metrics(result).items()}
    return metrics, wire


_CONFIGS = st.builds(
    ExperimentConfig,
    scheme=st.sampled_from(["ecmp", "mptcp", "conga", "letflow"]),
    load=st.sampled_from([0.3, 0.6, 0.9]),
    seed=st.integers(1, 10_000),
    asymmetric=st.booleans(),
    jobs_per_client=st.integers(1, 3),
    flow_scale=st.sampled_from([0.02, 0.05]),
)


@settings(max_examples=25, deadline=None)
@given(config=_CONFIGS)
def test_cached_ports_equal_the_per_packet_choice(config):
    cached_metrics, cached_wire = run(config, ecmp_module.EcmpPolicy)
    reference_metrics, reference_wire = run(config, PerPacketEcmp)
    assert cached_wire, "the run sent nothing"
    assert cached_metrics == reference_metrics
    assert cached_wire == reference_wire


def _subclasses(cls):
    return [cls] + [sub for direct in cls.__subclasses__()
                    for sub in _subclasses(direct)]


def test_the_vswitch_shortcuts_only_what_a_policy_declares():
    # load the policy modules nothing above imported
    import repro.baselines.presto  # noqa: F401
    import repro.core.latency  # noqa: F401

    policies = _subclasses(LoadBalancer)
    assert [cls for cls in policies if cls.static_ports] == [
        ecmp_module.EcmpPolicy]
    # a policy that can report every path congested says so, or the
    # vswitch would never ask it and the guest never see ECE
    overriding = [cls for cls in policies if cls.all_paths_congested
                  is not LoadBalancer.all_paths_congested]
    assert overriding
    assert all(cls.reports_all_congested for cls in overriding)
