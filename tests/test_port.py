"""Tests for the port algebra (repro.network.port)."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.network.mesh import Mesh2D
from repro.network.port import (
    CARDINALS,
    Direction,
    OFFSETS,
    Port,
    PortName,
    dir_of,
    neighbour_node,
    next_in,
    opposite,
    parse_port,
    port_name,
    trans,
    x_of,
    y_of,
)


def port_strategy(max_coord=10):
    return st.builds(
        Port,
        x=st.integers(min_value=0, max_value=max_coord),
        y=st.integers(min_value=0, max_value=max_coord),
        name=st.sampled_from(list(PortName)),
        direction=st.sampled_from(list(Direction)),
    )


class TestPortBasics:
    def test_port_is_hashable_and_equal_by_value(self):
        a = Port(1, 2, PortName.EAST, Direction.IN)
        b = Port(1, 2, PortName.EAST, Direction.IN)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_port_inequality(self):
        a = Port(1, 2, PortName.EAST, Direction.IN)
        assert a != Port(1, 2, PortName.EAST, Direction.OUT)
        assert a != Port(1, 2, PortName.WEST, Direction.IN)
        assert a != Port(2, 2, PortName.EAST, Direction.IN)

    def test_node_property(self):
        assert Port(3, 4, PortName.LOCAL, Direction.IN).node == (3, 4)

    def test_direction_predicates(self):
        assert Port(0, 0, PortName.EAST, Direction.IN).is_input
        assert not Port(0, 0, PortName.EAST, Direction.IN).is_output
        assert Port(0, 0, PortName.EAST, Direction.OUT).is_output

    def test_local_predicates(self):
        assert Port(0, 0, PortName.LOCAL, Direction.IN).is_local
        assert not Port(0, 0, PortName.LOCAL, Direction.IN).is_cardinal
        assert Port(0, 0, PortName.NORTH, Direction.IN).is_cardinal

    def test_str_form(self):
        assert str(Port(0, 0, PortName.EAST, Direction.OUT)) == "<0,0,E,OUT>"

    def test_with_name(self):
        port = Port(2, 3, PortName.EAST, Direction.IN)
        other = port.with_name(PortName.LOCAL, Direction.OUT)
        assert other == Port(2, 3, PortName.LOCAL, Direction.OUT)

    def test_ordering_is_total(self):
        ports = [Port(1, 0, PortName.EAST, Direction.IN),
                 Port(0, 1, PortName.WEST, Direction.OUT),
                 Port(0, 0, PortName.LOCAL, Direction.IN)]
        assert sorted(ports) == sorted(ports, key=lambda p: (p.x, p.y, p.name,
                                                             p.direction))

    def test_paper_accessors(self):
        port = Port(5, 7, PortName.SOUTH, Direction.OUT)
        assert x_of(port) == 5
        assert y_of(port) == 7
        assert port_name(port) is PortName.SOUTH
        assert dir_of(port) is Direction.OUT


class TestValueContract:
    """What every layer keying on ports relies on.

    ``checking/graphs.py`` ranks DFS successors by ``repr``, and set and
    dict orders follow the hash, so both are pinned to their exact values.
    """

    PORT = Port(1, 2, PortName.EAST, Direction.OUT)

    def test_repr_and_str_are_pinned(self):
        assert repr(self.PORT) == \
            "Port(x=1, y=2, name=PortName.EAST, direction=Direction.OUT)"
        assert str(self.PORT) == "<1,2,E,OUT>"
        assert f"{self.PORT}" == "<1,2,E,OUT>"

    def test_hash_is_the_field_tuple_hash(self):
        assert hash(self.PORT) == \
            hash((1, 2, PortName.EAST, Direction.OUT))

    def test_sorted_ports_follow_the_field_tuple(self):
        ports = Mesh2D(3, 3).ports
        assert sorted(ports) == sorted(
            ports, key=lambda p: (p.x, p.y, p.name, p.direction))

    def test_ports_are_immutable_and_slotted(self):
        with pytest.raises(AttributeError):
            self.PORT.x = 5
        assert not hasattr(self.PORT, "__dict__")

    def test_pickle_round_trip(self):
        # Pool workers ship cycle cores (lists of ports) back by pickle.
        clone = pickle.loads(pickle.dumps([self.PORT]))[0]
        assert clone == self.PORT and type(clone) is Port
        assert hash(clone) == hash(self.PORT)

    def test_a_port_equals_its_field_tuple(self):
        # Accepted delta of the tuple representation.
        assert self.PORT == (1, 2, PortName.EAST, Direction.OUT)


class TestTrans:
    def test_trans_keeps_node(self):
        port = Port(4, 5, PortName.EAST, Direction.IN)
        result = trans(port, PortName.NORTH, Direction.OUT)
        assert result.node == (4, 5)
        assert result.name is PortName.NORTH
        assert result.direction is Direction.OUT

    @given(port_strategy(), st.sampled_from(list(PortName)),
           st.sampled_from(list(Direction)))
    def test_trans_is_projection(self, port, name, direction):
        result = trans(port, name, direction)
        assert result.node == port.node
        # Applying trans twice with the same arguments is idempotent.
        assert trans(result, name, direction) == result


class TestOpposite:
    @pytest.mark.parametrize("name,expected", [
        (PortName.EAST, PortName.WEST),
        (PortName.WEST, PortName.EAST),
        (PortName.NORTH, PortName.SOUTH),
        (PortName.SOUTH, PortName.NORTH),
    ])
    def test_opposites(self, name, expected):
        assert opposite(name) is expected

    def test_opposite_of_local_raises(self):
        with pytest.raises(ValueError):
            opposite(PortName.LOCAL)

    @pytest.mark.parametrize("name", list(CARDINALS))
    def test_opposite_is_involution(self, name):
        assert opposite(opposite(name)) is name


class TestNextIn:
    def test_paper_example(self):
        # next_in(<0,0,E,OUT>) = <1,0,W,IN>  (paper Section V.1)
        assert next_in(Port(0, 0, PortName.EAST, Direction.OUT)) == \
            Port(1, 0, PortName.WEST, Direction.IN)

    def test_north_decreases_y(self):
        assert next_in(Port(2, 2, PortName.NORTH, Direction.OUT)) == \
            Port(2, 1, PortName.SOUTH, Direction.IN)

    def test_south_increases_y(self):
        assert next_in(Port(2, 2, PortName.SOUTH, Direction.OUT)) == \
            Port(2, 3, PortName.NORTH, Direction.IN)

    def test_west_decreases_x(self):
        assert next_in(Port(2, 2, PortName.WEST, Direction.OUT)) == \
            Port(1, 2, PortName.EAST, Direction.IN)

    def test_next_in_requires_out_port(self):
        with pytest.raises(ValueError):
            next_in(Port(0, 0, PortName.EAST, Direction.IN))

    def test_next_in_of_local_out_raises(self):
        with pytest.raises(ValueError):
            next_in(Port(0, 0, PortName.LOCAL, Direction.OUT))

    @given(st.integers(0, 20), st.integers(0, 20),
           st.sampled_from(list(CARDINALS)))
    def test_next_in_lands_on_adjacent_node(self, x, y, name):
        port = Port(x, y, name, Direction.OUT)
        target = next_in(port)
        assert abs(target.x - x) + abs(target.y - y) == 1
        assert target.direction is Direction.IN
        assert target.name is opposite(name)

    @given(st.integers(0, 20), st.integers(0, 20),
           st.sampled_from(list(CARDINALS)))
    def test_next_in_matches_offsets(self, x, y, name):
        port = Port(x, y, name, Direction.OUT)
        dx, dy = OFFSETS[name]
        assert next_in(port).node == (x + dx, y + dy)
        assert neighbour_node(port) == (x + dx, y + dy)

    def test_neighbour_node_of_local_is_self(self):
        assert neighbour_node(Port(1, 1, PortName.LOCAL, Direction.OUT)) == (1, 1)


class TestParsePort:
    @given(port_strategy())
    def test_parse_roundtrip(self, port):
        assert parse_port(str(port)) == port

    def test_parse_with_spaces(self):
        assert parse_port(" <1, 2, E, IN> ") == Port(1, 2, PortName.EAST,
                                                     Direction.IN)

    @pytest.mark.parametrize("text", ["", "1,2,E,IN", "<1,2,E>", "<a,b,E,IN>"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_port(text)
