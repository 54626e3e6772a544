"""Tests for the turn-model, adaptive and ring routing functions."""

import pytest

from repro.checking.graphs import find_cycle_dfs
from repro.core.dependency import routing_dependency_graph
from repro.core.errors import RoutingError
from repro.network.mesh import Mesh2D
from repro.network.port import Direction, Port, PortName
from repro.network.ring import Ring
from repro.routing.adaptive import FullyAdaptiveMinimalRouting, ZigZagRouting
from repro.routing.ring import (
    ChainRingRouting,
    ClockwiseRingRouting,
    ShortestPathRingRouting,
)
from repro.routing.turn_model import (
    NegativeFirstRouting,
    NorthLastRouting,
    WestFirstRouting,
)
from tests.routing_reference import occurring_pairs


@pytest.fixture
def mesh():
    return Mesh2D(3, 3)


def local_in(x, y):
    return Port(x, y, PortName.LOCAL, Direction.IN)


def local_out(x, y):
    return Port(x, y, PortName.LOCAL, Direction.OUT)


class TestTurnModels:
    def test_west_first_forces_west_when_needed(self, mesh):
        routing = WestFirstRouting(mesh)
        hops = routing.next_hops(local_in(2, 0), local_out(0, 2))
        assert hops == [Port(2, 0, PortName.WEST, Direction.OUT)]

    def test_west_first_is_adaptive_otherwise(self, mesh):
        routing = WestFirstRouting(mesh)
        hops = routing.next_hops(local_in(0, 0), local_out(2, 2))
        assert set(hops) == {Port(0, 0, PortName.EAST, Direction.OUT),
                             Port(0, 0, PortName.SOUTH, Direction.OUT)}
        assert not routing.is_deterministic

    def test_north_last_postpones_north(self, mesh):
        routing = NorthLastRouting(mesh)
        hops = routing.next_hops(local_in(0, 2), local_out(2, 0))
        # North is minimal but not the only minimal direction -> excluded.
        assert hops == [Port(0, 2, PortName.EAST, Direction.OUT)]

    def test_north_last_allows_north_when_only_option(self, mesh):
        routing = NorthLastRouting(mesh)
        hops = routing.next_hops(local_in(1, 2), local_out(1, 0))
        assert hops == [Port(1, 2, PortName.NORTH, Direction.OUT)]

    def test_negative_first_prefers_negative_directions(self, mesh):
        routing = NegativeFirstRouting(mesh)
        hops = routing.next_hops(local_in(2, 2), local_out(0, 0))
        assert set(hops) == {Port(2, 2, PortName.WEST, Direction.OUT),
                             Port(2, 2, PortName.NORTH, Direction.OUT)}
        hops_positive = routing.next_hops(local_in(0, 0), local_out(2, 2))
        assert set(hops_positive) == {Port(0, 0, PortName.EAST, Direction.OUT),
                                      Port(0, 0, PortName.SOUTH, Direction.OUT)}

    @pytest.mark.parametrize("routing_cls", [WestFirstRouting,
                                             NorthLastRouting,
                                             NegativeFirstRouting])
    def test_turn_models_are_deadlock_free(self, mesh, routing_cls):
        routing = routing_cls(mesh)
        graph = routing_dependency_graph(routing)
        assert find_cycle_dfs(graph).acyclic

    @pytest.mark.parametrize("routing_cls", [WestFirstRouting,
                                             NorthLastRouting,
                                             NegativeFirstRouting])
    def test_turn_model_routes_terminate_and_are_minimal(self, mesh,
                                                         routing_cls):
        routing = routing_cls(mesh)
        for source in mesh.coordinates():
            for target in mesh.coordinates():
                route = routing.compute_route(local_in(*source),
                                              local_out(*target))
                hops = sum(1 for a, b in zip(route, route[1:])
                           if a.node != b.node)
                assert hops == mesh.manhattan_distance(source, target)

    def test_turn_model_reachability_uses_occurring_pairs(self, mesh):
        routing = WestFirstRouting(mesh)
        pairs = occurring_pairs(routing)
        # A North in-port with a destination strictly to the north can never
        # occur under west-first minimal routing.
        impossible = (Port(1, 1, PortName.NORTH, Direction.IN),
                      local_out(1, 0))
        assert impossible not in pairs
        assert not routing.reachable(*impossible)


class TestAdaptiveRouting:
    def test_all_minimal_directions_offered(self, mesh):
        routing = FullyAdaptiveMinimalRouting(mesh)
        hops = routing.next_hops(local_in(0, 0), local_out(2, 2))
        assert set(hops) == {Port(0, 0, PortName.EAST, Direction.OUT),
                             Port(0, 0, PortName.SOUTH, Direction.OUT)}

    def test_adaptive_routing_has_cyclic_dependency_graph(self, mesh):
        routing = FullyAdaptiveMinimalRouting(mesh)
        graph = routing_dependency_graph(routing)
        assert not find_cycle_dfs(graph).acyclic

    def test_adaptive_cycle_exists_even_on_2x2(self):
        routing = FullyAdaptiveMinimalRouting(Mesh2D(2, 2))
        graph = routing_dependency_graph(routing)
        assert not find_cycle_dfs(graph).acyclic

    def test_zigzag_is_deterministic(self, mesh):
        routing = ZigZagRouting(mesh)
        assert routing.is_deterministic
        for source in mesh.coordinates():
            for target in mesh.coordinates():
                route = routing.compute_route(local_in(*source),
                                              local_out(*target))
                assert route[-1] == local_out(*target)

    def test_zigzag_has_cycles_on_3x3_but_not_2x2(self):
        acyclic_small = find_cycle_dfs(routing_dependency_graph(
            ZigZagRouting(Mesh2D(2, 2)))).acyclic
        acyclic_large = find_cycle_dfs(routing_dependency_graph(
            ZigZagRouting(Mesh2D(3, 3)))).acyclic
        assert acyclic_small
        assert not acyclic_large

    def test_zigzag_routes_by_destination_parity(self, mesh):
        routing = ZigZagRouting(mesh)
        # Even destination column: x first.
        assert routing.next_hop(local_in(0, 0), local_out(2, 2)).name \
            is PortName.EAST
        # Odd destination column: y first.
        assert routing.next_hop(local_in(0, 0), local_out(1, 2)).name \
            is PortName.SOUTH


class TestRingRouting:
    def test_clockwise_always_goes_east(self):
        ring = Ring(4)
        routing = ClockwiseRingRouting(ring)
        hop = routing.next_hop(Port(3, 0, PortName.LOCAL, Direction.IN),
                               Port(1, 0, PortName.LOCAL, Direction.OUT))
        assert hop == Port(3, 0, PortName.EAST, Direction.OUT)

    def test_clockwise_route_wraps(self):
        ring = Ring(4)
        routing = ClockwiseRingRouting(ring)
        route = routing.compute_route(
            Port(3, 0, PortName.LOCAL, Direction.IN),
            Port(1, 0, PortName.LOCAL, Direction.OUT))
        visited_nodes = [port.x for port in route]
        assert visited_nodes[0] == 3
        assert 0 in visited_nodes  # crossed the wrap-around link
        assert visited_nodes[-1] == 1

    def test_clockwise_has_cyclic_dependency_graph(self):
        routing = ClockwiseRingRouting(Ring(4))
        assert not find_cycle_dfs(routing_dependency_graph(routing)).acyclic

    def test_shortest_path_picks_shorter_arc(self):
        ring = Ring(6)
        routing = ShortestPathRingRouting(ring)
        west = routing.next_hop(Port(0, 0, PortName.LOCAL, Direction.IN),
                                Port(5, 0, PortName.LOCAL, Direction.OUT))
        assert west.name is PortName.WEST
        east = routing.next_hop(Port(0, 0, PortName.LOCAL, Direction.IN),
                                Port(2, 0, PortName.LOCAL, Direction.OUT))
        assert east.name is PortName.EAST

    def test_shortest_path_still_has_cycles(self):
        routing = ShortestPathRingRouting(Ring(6))
        assert not find_cycle_dfs(routing_dependency_graph(routing)).acyclic

    def test_chain_routing_never_wraps(self):
        ring = Ring(5)
        routing = ChainRingRouting(ring)
        for source in range(5):
            for target in range(5):
                if source == target:
                    continue
                route = routing.compute_route(
                    Port(source, 0, PortName.LOCAL, Direction.IN),
                    Port(target, 0, PortName.LOCAL, Direction.OUT))
                nodes = [port.x for port in route]
                # Node indices move monotonically: no wrap-around.
                assert all(abs(a - b) <= 1 for a, b in zip(nodes, nodes[1:]))

    def test_chain_routing_is_deadlock_free(self):
        routing = ChainRingRouting(Ring(5))
        assert find_cycle_dfs(routing_dependency_graph(routing)).acyclic

    def test_chain_requires_bidirectional_ring(self):
        with pytest.raises(ValueError):
            ChainRingRouting(Ring(4, bidirectional=False))

    def test_ring_routing_rejects_bad_destination(self):
        routing = ClockwiseRingRouting(Ring(4))
        with pytest.raises(RoutingError):
            routing.next_hops(Port(0, 0, PortName.LOCAL, Direction.IN),
                              Port(0, 0, PortName.EAST, Direction.OUT))

    def test_ring_local_out_cannot_route(self):
        routing = ClockwiseRingRouting(Ring(4))
        with pytest.raises(RoutingError):
            routing.next_hops(Port(0, 0, PortName.LOCAL, Direction.OUT),
                              Port(1, 0, PortName.LOCAL, Direction.OUT))
