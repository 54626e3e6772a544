"""Tests for the virtual-channel resource layer: VirtualChannel,
VCTopology, per-VC buffer/ownership state, the FlitBufferError rename and
the single-VC degenerate case."""

import pickle

import pytest

from repro.core.state import NetworkState
from repro.network.buffers import (
    FlitBuffer,
    FlitBufferError,
    PortState,
)
from repro.network.flit import make_flits
from repro.network.mesh import Mesh2D
from repro.network.port import Direction, Port, PortName
from repro.network.ring import Ring
from repro.network.torus import Torus2D
from repro.network.vc import (
    VCTopology,
    VirtualChannel,
    channels_of,
    is_wrap_link,
    parse_channel,
    port_of,
    vc_of,
)


EAST_OUT = Port(0, 0, PortName.EAST, Direction.OUT)
WEST_IN = Port(1, 0, PortName.WEST, Direction.IN)
LOCAL_IN = Port(0, 0, PortName.LOCAL, Direction.IN)


class TestVirtualChannel:
    def test_value_semantics(self):
        a = VirtualChannel(EAST_OUT, 1)
        b = VirtualChannel(Port(0, 0, PortName.EAST, Direction.OUT), 1)
        assert a == b
        assert hash(a) == hash(b)
        assert a != a.with_vc(0)

    def test_port_interface_delegation(self):
        channel = VirtualChannel(EAST_OUT, 2)
        assert channel.x == 0 and channel.y == 0
        assert channel.node == (0, 0)
        assert channel.is_output and not channel.is_input
        assert channel.is_cardinal and not channel.is_local
        assert channel.name is PortName.EAST
        assert channel.direction is Direction.OUT

    def test_str_roundtrip(self):
        channel = VirtualChannel(WEST_IN, 3)
        assert str(channel) == "<1,0,W,IN>#3"
        assert parse_channel(str(channel)) == channel

    def test_port_of_and_vc_of_cover_the_degenerate_case(self):
        channel = VirtualChannel(EAST_OUT, 2)
        assert port_of(channel) == EAST_OUT
        assert vc_of(channel) == 2
        # Plain ports are their own resource at VC 0.
        assert port_of(EAST_OUT) == EAST_OUT
        assert vc_of(EAST_OUT) == 0

    def test_repr_and_str_are_pinned(self):
        channel = VirtualChannel(EAST_OUT, 1)
        assert repr(channel) == (
            "VirtualChannel(port=Port(x=0, y=0, name=PortName.EAST, "
            "direction=Direction.OUT), vc=1)")
        assert str(channel) == "<0,0,E,OUT>#1"
        assert f"{channel}" == "<0,0,E,OUT>#1"

    def test_hash_is_the_field_tuple_hash(self):
        assert hash(VirtualChannel(EAST_OUT, 1)) == hash((EAST_OUT, 1))

    def test_a_port_never_equals_a_channel(self):
        channel = VirtualChannel(EAST_OUT, 0)
        assert channel != EAST_OUT and EAST_OUT != channel
        with pytest.raises(TypeError):
            channel < EAST_OUT
        with pytest.raises(TypeError):
            EAST_OUT < channel

    def test_channels_are_immutable_and_slotted(self):
        channel = VirtualChannel(EAST_OUT, 1)
        with pytest.raises(AttributeError):
            channel.vc = 2
        assert not hasattr(channel, "__dict__")

    def test_pickle_round_trip(self):
        channel = VirtualChannel(WEST_IN, 2)
        clone = pickle.loads(pickle.dumps([channel]))[0]
        assert clone == channel and type(clone) is VirtualChannel
        assert type(clone.port) is Port

    def test_a_channel_equals_its_field_tuple(self):
        # Accepted delta of the tuple representation.
        assert VirtualChannel(EAST_OUT, 1) == (EAST_OUT, 1)

    def test_channels_of_multiplexes_cardinals_only(self):
        assert len(channels_of(EAST_OUT, 4)) == 4
        assert channels_of(LOCAL_IN, 4) == [VirtualChannel(LOCAL_IN, 0)]
        with pytest.raises(ValueError):
            channels_of(EAST_OUT, 0)


class TestVCTopology:
    def test_channel_counts(self):
        mesh = Mesh2D(3, 3)
        vct = VCTopology(mesh, 2)
        cardinals = sum(1 for p in mesh.ports if p.is_cardinal)
        locals_ = sum(1 for p in mesh.ports if p.is_local)
        assert vct.port_count == cardinals * 2 + locals_
        assert vct.num_vcs == 2
        assert vct.describe()["virtual_channels"] == 2
        assert vct.describe()["channels"] == vct.port_count

    def test_single_vc_matches_base_port_count(self):
        mesh = Mesh2D(2, 3)
        vct = VCTopology(mesh, 1)
        assert vct.port_count == mesh.port_count

    def test_links_preserve_the_vc_index(self):
        mesh = Mesh2D(2, 2)
        vct = VCTopology(mesh, 3)
        for vc in range(3):
            out = VirtualChannel(EAST_OUT, vc)
            assert vct.link_target(out) == VirtualChannel(WEST_IN, vc)
        # Local out-channels are sinks.
        local_out = VirtualChannel(
            Port(0, 0, PortName.LOCAL, Direction.OUT), 0)
        assert vct.link_target(local_out) is None

    def test_injection_and_ejection_channels(self):
        mesh = Mesh2D(2, 2)
        vct = VCTopology(mesh, 2)
        assert len(vct.local_in_ports()) == 4
        assert all(vc_of(c) == 0 and port_of(c).is_local
                   for c in vct.local_in_ports())
        assert len(vct.local_out_ports()) == 4

    def test_has_port_rejects_foreign_vcs(self):
        mesh = Mesh2D(2, 2)
        vct = VCTopology(mesh, 2)
        assert vct.has_port(VirtualChannel(EAST_OUT, 1))
        assert not vct.has_port(VirtualChannel(EAST_OUT, 2))
        assert not vct.has_port(VirtualChannel(LOCAL_IN, 1))

    def test_network_state_over_channels(self):
        mesh = Mesh2D(2, 2)
        vct = VCTopology(mesh, 2)
        state = NetworkState.empty(vct, capacity=2)
        flit = make_flits(7, 1)[0]
        channel = VirtualChannel(EAST_OUT, 1)
        state.accept_flit(channel, flit)
        # Per-VC ownership: VC 1 is owned, VC 0 of the same port is free.
        assert not state.accepts(channel, 8)
        assert state.accepts(VirtualChannel(EAST_OUT, 0), 8)
        assert state.total_flits() == 1


class TestWrapLinks:
    def test_torus_wrap_links(self):
        torus = Torus2D(3, 3)
        assert is_wrap_link(torus, Port(2, 0, PortName.EAST, Direction.OUT))
        assert is_wrap_link(torus, Port(0, 0, PortName.WEST, Direction.OUT))
        assert is_wrap_link(torus, Port(0, 2, PortName.SOUTH, Direction.OUT))
        assert not is_wrap_link(torus,
                                Port(1, 0, PortName.EAST, Direction.OUT))

    def test_ring_wrap_links(self):
        ring = Ring(4, bidirectional=True)
        assert is_wrap_link(ring, Port(3, 0, PortName.EAST, Direction.OUT))
        assert is_wrap_link(ring, Port(0, 0, PortName.WEST, Direction.OUT))
        assert not is_wrap_link(ring,
                                Port(1, 0, PortName.EAST, Direction.OUT))

    def test_mesh_has_no_wrap_links(self):
        mesh = Mesh2D(3, 3)
        assert not any(is_wrap_link(mesh, port) for port in mesh.ports
                       if port.is_output)


class TestFlitBufferErrorRename:
    def test_deprecated_alias_is_gone(self):
        """``BufferError_`` (deprecated in the VC PR) has been removed;
        :class:`FlitBufferError` is the one exception type."""
        import repro.network.buffers as buffers

        assert not hasattr(buffers, "BufferError_")

    def test_overflow_raises_flit_buffer_error(self):
        buffer = FlitBuffer(1)
        buffer.push(make_flits(1, 1)[0])
        with pytest.raises(FlitBufferError):
            buffer.push(make_flits(2, 1)[0])

    def test_underflow_raises_flit_buffer_error(self):
        with pytest.raises(FlitBufferError):
            FlitBuffer(1).pop()

    def test_ownership_violation_raises_flit_buffer_error(self):
        """The wormhole ownership path: a port owned by one worm refuses
        flits of another, raising the renamed exception."""
        state = PortState.with_capacity(2)
        state.accept(make_flits(1, 2)[0])
        assert state.owner == 1
        foreign = make_flits(2, 1)[0]
        with pytest.raises(FlitBufferError, match="owned by travel 1"):
            state.accept(foreign)
