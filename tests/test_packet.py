"""Unit tests for packets and header handling.

Encapsulation is the virtual switch's job (``VSwitch.transmit`` attaches
the outer header, ``VSwitch.receive_encapsulated`` strips it), so those
cases drive a two-host overlay fabric.
"""

import pytest

from repro.hypervisor.policy import LoadBalancer
from repro.net.packet import (
    ACK_BYTES,
    ENCAP_BYTES,
    FlowKey,
    HEADER_BYTES,
    STT_DST_PORT,
)

from tests.conftest import make_ack_packet, make_data_packet, make_fabric


class _PortPolicy(LoadBalancer):
    """Outer source port 5000 for every packet."""

    def select_source_port(self, inner, packet, now):
        return 5000


class _EcnPortPolicy(_PortPolicy):
    wants_ecn = True


def _overlay(policy_cls=_PortPolicy):
    """(sim, sending host, receiving host) on a fresh overlay fabric."""
    sim, _net, hosts = make_fabric(policy_factory=lambda name, i: policy_cls())
    return sim, hosts["h1_0"], hosts["h2_0"]


def _guest_packet(src, dst, payload=1000):
    return make_data_packet(FlowKey(src.ip, dst.ip, 3, 4), 0, payload, 0.0)


class TestFlowKey:
    def test_reversed_swaps_endpoints(self):
        key = FlowKey(1, 2, 100, 200)
        rev = key.reversed()
        assert rev == FlowKey(2, 1, 200, 100)
        assert rev.reversed() == key

    def test_hashable_and_equal(self):
        assert FlowKey(1, 2, 3, 4) == FlowKey(1, 2, 3, 4)
        assert len({FlowKey(1, 2, 3, 4), FlowKey(1, 2, 3, 4)}) == 1

    def test_as_tuple(self):
        assert FlowKey(1, 2, 3, 4, 17).as_tuple() == (1, 2, 3, 4, 17)

    def test_default_proto_is_tcp(self):
        assert FlowKey(1, 2, 3, 4).proto == 6


class TestEncapsulation:
    def test_encapsulate_adds_header_bytes(self):
        _sim, src, dst = _overlay()
        packet = _guest_packet(src, dst)
        size_before = packet.size
        src.vswitch.transmit(packet)
        assert packet.size == size_before + ENCAP_BYTES
        assert packet.outer == FlowKey(src.ip, dst.ip, 5000, STT_DST_PORT)

    def test_decapsulate_restores_size_and_returns_outer(self):
        sim, src, dst = _overlay()
        packet = _guest_packet(src, dst)
        seen = []

        class Endpoint:
            def on_packet(self, packet):
                seen.append((packet.outer, packet.size))

        dst.register_endpoint(packet.inner, Endpoint())
        src.vswitch.transmit(packet)
        sim.run(until=0.01)
        assert seen == [(None, 1000 + HEADER_BYTES)]
        # the stripped outer header names the path the echo state is kept for
        assert list(dst.vswitch._echo[src.ip]) == [5000]

    def test_double_encapsulation_rejected(self):
        _sim, src, dst = _overlay()
        packet = _guest_packet(src, dst, payload=100)
        src.vswitch.transmit(packet)
        with pytest.raises(ValueError):
            src.vswitch.transmit(packet)

    def test_decapsulate_plain_packet_rejected(self):
        _sim, src, dst = _overlay()
        packet = _guest_packet(src, dst, payload=100)
        with pytest.raises(ValueError):
            dst.vswitch.receive_encapsulated(packet)

    def test_route_key_prefers_outer(self):
        _sim, src, dst = _overlay()
        packet = _guest_packet(src, dst, payload=100)
        assert packet.route_key == packet.inner
        src.vswitch.transmit(packet)
        assert packet.route_key == FlowKey(src.ip, dst.ip, 5000, STT_DST_PORT)

    def test_ect_set_by_encapsulation_flag(self):
        _sim, src, dst = _overlay(_PortPolicy)
        packet = _guest_packet(src, dst, payload=100)
        src.vswitch.transmit(packet)
        assert not packet.ect
        _sim, src, dst = _overlay(_EcnPortPolicy)
        packet2 = _guest_packet(src, dst, payload=100)
        src.vswitch.transmit(packet2)
        assert packet2.ect


class TestHelpers:
    def test_ack_packet_shape(self):
        ack = make_ack_packet(FlowKey(2, 1, 200, 100), 5000, 1.0)
        assert ack.is_ack
        assert ack.payload_bytes == 0
        assert ack.ack == 5000
        assert ack.size == ACK_BYTES

    def test_data_packet_is_not_ack(self):
        data = make_data_packet(FlowKey(1, 2, 3, 4), 0, 1460, 0.0)
        assert not data.is_ack
        assert data.ack == -1

    def test_packet_ids_unique(self):
        a = make_data_packet(FlowKey(1, 2, 3, 4), 0, 10, 0.0)
        b = make_data_packet(FlowKey(1, 2, 3, 4), 0, 10, 0.0)
        assert a.pid != b.pid
