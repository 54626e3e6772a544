"""The one next-hop skeleton of :class:`RoutingFunction`, per routing family.

Every routing answers only its in-port rule (``_route_from_in_port``) and,
optionally, a closed-form ``_reaches``; the destination check, the sink
rule, the link rule and delivery are ``RoutingFunction.next_hops`` and
``RoutingFunction.reachable`` for all of them, and the route table runs
the same skeleton over dense ids.
"""

import pytest

from repro.core.constituents import RoutingFunction
from repro.core.errors import RoutingError
from repro.core.spec import expand_matrix
from repro.network.mesh import Mesh2D
from repro.network.port import Direction, Port, PortName, next_in
from repro.network.ring import Ring
from repro.network.torus import Torus2D
from repro.network.vc import VirtualChannel
from repro.routing.base import route_table
from repro.routing.escape import (
    EscapeChannelRouting,
    mesh_escape_routing,
    ring_escape_routing,
    torus_escape_routing,
)
from repro.routing.ring import (
    ChainRingRouting,
    ClockwiseRingRouting,
    ShortestPathRingRouting,
)
from repro.routing.torus import TorusAdaptiveMinimalRouting, TorusXYRouting
from repro.routing.turn_model import OddEvenRouting
from repro.routing.xy import XYRouting


def _built(term):
    (spec,) = expand_matrix(term)
    return spec.build().routing


FAMILIES = {
    "xy": lambda: XYRouting(Mesh2D(3, 3)),
    "odd-even": lambda: OddEvenRouting(Mesh2D(3, 3)),
    "fault-aware-xy": lambda: _built("mesh:3x3, routing=xy, faults=2, seed=1"),
    "fault-aware-adaptive": lambda: _built(
        "mesh:3x3, routing=adaptive, faults=1, seed=1"),
    "torus-xy": lambda: TorusXYRouting(Torus2D(4, 3)),
    "torus-adaptive": lambda: TorusAdaptiveMinimalRouting(Torus2D(4, 3)),
    "clockwise-ring": lambda: ClockwiseRingRouting(Ring(5)),
    "chain-ring": lambda: ChainRingRouting(Ring(5)),
    "shortest-ring": lambda: ShortestPathRingRouting(Ring(5)),
    "escape-mesh": lambda: mesh_escape_routing(Mesh2D(3, 3), num_vcs=2),
    "escape-torus": lambda: torus_escape_routing(Torus2D(4, 3), num_vcs=3),
    "escape-ring": lambda: ring_escape_routing(Ring(5), num_vcs=2),
}

families = pytest.mark.parametrize(
    "make", [pytest.param(make, id=name) for name, make in FAMILIES.items()])


def _foreign(routing, name, direction):
    """A port (or channel) of the right kind that is not in the topology."""
    port = Port(99, 99, name, direction)
    if isinstance(routing, EscapeChannelRouting):
        return VirtualChannel(port, 0)
    return port


@families
def test_the_skeleton_has_one_definition(make):
    routing = make()
    assert type(routing).next_hops is RoutingFunction.next_hops
    assert type(routing).reachable is RoutingFunction.reachable


@families
def test_a_local_out_port_is_a_sink(make):
    routing = make()
    sink, destination = routing.destinations()[:2]
    with pytest.raises(RoutingError, match="network sink"):
        routing.next_hops(sink, destination)
    assert routing.next_hops(destination, destination) == []


@families
def test_an_invalid_destination_is_rejected(make):
    routing = make()
    source = routing.topology.local_in_ports()[0]
    invalid = [routing.topology.local_in_ports()[1],
               _foreign(routing, PortName.LOCAL, Direction.OUT)]
    if isinstance(routing, EscapeChannelRouting):
        invalid.append(routing.destinations()[1].port)  # a port, no channel
    for destination in invalid:
        with pytest.raises(RoutingError, match="not a valid destination"):
            routing.next_hops(source, destination)
        assert not routing.reachable(source, destination)


@families
def test_reachable_settles_the_structural_cases(make):
    routing = make()
    sink, destination = routing.destinations()[:2]
    source = routing.topology.local_in_ports()[0]
    assert routing.reachable(source, destination)
    assert routing.reachable(destination, destination)
    assert not routing.reachable(sink, destination)
    assert not routing.reachable(
        _foreign(routing, PortName.EAST, Direction.IN), destination)


@families
def test_the_table_rejects_an_off_topology_hop(make):
    routing = make()
    # The escape relations fill from their base routings' in-port rule.
    owner = (routing.escape_routing
             if isinstance(routing, EscapeChannelRouting) else routing)
    outside = Port(99, 99, PortName.EAST, Direction.OUT)
    owner._route_from_in_port = lambda current, destination: [outside]
    with pytest.raises(RoutingError, match=f"non-existent port {outside}"):
        route_table(routing)


@pytest.mark.parametrize("term", [
    "mesh:4x3, routing=xy",
    "mesh:4x3, routing=xy, faults=1, seed=1",
    "mesh:4x3, routing=xy, faults=2, seed=3",
    "mesh:3x3, routing=adaptive, faults=2, seed=1",
])
def test_the_link_rule_is_next_in_on_meshes(term):
    topology = _built(term).topology
    cardinal_outs = [port for port in topology.ports
                     if port.is_output and not port.is_local]
    assert cardinal_outs
    for out in cardinal_outs:
        assert topology.link_target(out) == next_in(out)
