"""Unit tests for the turn-model routing family (west-first, north-last,
negative-first, odd-even): allowed-turn sets, reachability/totality on
3x3 and 4x4 meshes, and acyclicity of every dependency graph with the
certified DFS and the Kahn session agreeing.
"""

import pytest

from repro.checking.graphs import find_cycle_dfs
from repro.core.deadlock import DeadlockQuerySession
from repro.core.dependency import routing_dependency_graph
from repro.network.mesh import Mesh2D
from repro.network.port import Direction, Port, PortName
from repro.routing.turn_model import (
    NegativeFirstRouting,
    NorthLastRouting,
    OddEvenRouting,
    WestFirstRouting,
    odd_even_directions,
)
from tests.routing_reference import occurring_pairs

TURN_MODELS = [WestFirstRouting, NorthLastRouting, NegativeFirstRouting,
               OddEvenRouting]


def local_in(x, y):
    return Port(x, y, PortName.LOCAL, Direction.IN)


def local_out(x, y):
    return Port(x, y, PortName.LOCAL, Direction.OUT)


def in_port(x, y, name):
    return Port(x, y, name, Direction.IN)


class TestAllowedTurnSets:
    """The defining allowed-direction set of each model, port by port."""

    def test_west_first_forces_west(self):
        routing = WestFirstRouting(Mesh2D(4, 4))
        hops = routing.next_hops(local_in(3, 1), local_out(0, 3))
        assert hops == [Port(3, 1, PortName.WEST, Direction.OUT)]

    def test_north_last_defers_north(self):
        routing = NorthLastRouting(Mesh2D(4, 4))
        # North and East both minimal: only East allowed.
        hops = routing.next_hops(local_in(0, 3), local_out(2, 0))
        assert hops == [Port(0, 3, PortName.EAST, Direction.OUT)]
        # North the only minimal direction: allowed.
        hops = routing.next_hops(local_in(2, 3), local_out(2, 0))
        assert hops == [Port(2, 3, PortName.NORTH, Direction.OUT)]

    def test_negative_first_orders_negative_before_positive(self):
        routing = NegativeFirstRouting(Mesh2D(4, 4))
        hops = routing.next_hops(local_in(3, 0), local_out(0, 3))
        # West (negative) strictly before South (positive).
        assert hops == [Port(3, 0, PortName.WEST, Direction.OUT)]

    def test_odd_even_bans_vertical_turn_in_even_columns_eastbound(self):
        # Eastbound worm arriving at even column 2 mid-route (West in-port
        # = moving East): the EN/ES turn is forbidden there.
        current = in_port(2, 2, PortName.WEST)
        assert odd_even_directions(current, local_out(3, 0)) \
            == [PortName.EAST]
        # Same geometry in odd column 1: vertical is allowed too.
        current = in_port(1, 2, PortName.WEST)
        assert set(odd_even_directions(current, local_out(3, 0))) \
            == {PortName.NORTH, PortName.EAST}

    def test_odd_even_allows_vertical_at_the_source(self):
        # At the source node (local in-port) the vertical move is allowed
        # even in an even column -- it is an injection, not a turn.
        assert PortName.SOUTH in odd_even_directions(local_in(0, 0),
                                                     local_out(2, 2))

    def test_odd_even_defers_final_east_into_an_even_column(self):
        # dx == 1 with dy != 0 and an even destination column: taking East
        # now would force a forbidden EN/ES turn at the destination column,
        # so East is excluded until the vertical movement is done.
        current = in_port(1, 0, PortName.WEST)
        assert odd_even_directions(current, local_out(2, 2)) \
            == [PortName.SOUTH]
        # Odd destination column: the final East hop is fine -- and from an
        # even column the vertical is banned anyway, so East is the single
        # allowed direction.
        current = in_port(2, 0, PortName.WEST)
        assert odd_even_directions(current, local_out(3, 2)) \
            == [PortName.EAST]

    def test_odd_even_westbound_vertical_only_in_even_columns(self):
        # Westbound (NW/SW turns banned in odd columns).
        current = in_port(3, 0, PortName.EAST)
        assert odd_even_directions(current, local_out(0, 2)) \
            == [PortName.WEST]
        current = in_port(2, 0, PortName.EAST)
        assert set(odd_even_directions(current, local_out(0, 2))) \
            == {PortName.WEST, PortName.SOUTH}

    def test_odd_even_pure_vertical_is_always_allowed(self):
        assert odd_even_directions(local_in(2, 0), local_out(2, 3)) \
            == [PortName.SOUTH]
        assert odd_even_directions(in_port(2, 3, PortName.SOUTH),
                                   local_out(2, 0)) == [PortName.NORTH]


@pytest.mark.parametrize("dims", [(3, 3), (4, 4)])
@pytest.mark.parametrize("routing_cls", TURN_MODELS)
class TestReachabilityAndTotality:
    def test_every_pair_routes_minimally(self, dims, routing_cls):
        mesh = Mesh2D(*dims)
        routing = routing_cls(mesh)
        for source in mesh.coordinates():
            for target in mesh.coordinates():
                route = routing.compute_route(local_in(*source),
                                              local_out(*target))
                hops = sum(1 for a, b in zip(route, route[1:])
                           if a.node != b.node)
                assert hops == mesh.manhattan_distance(source, target), \
                    (source, target)

    def test_relation_is_total_on_occurring_pairs(self, dims, routing_cls):
        """Every (port, destination) pair a packet can reach offers at
        least one hop -- no turn model strands a worm mid-route."""
        mesh = Mesh2D(*dims)
        routing = routing_cls(mesh)
        pairs = occurring_pairs(routing)
        assert pairs, "the occurring-pairs set must not be empty"
        for port, destination in pairs:
            if port == destination:
                continue
            assert routing.next_hops(port, destination), (port, destination)
            assert routing.reachable(port, destination)


@pytest.mark.parametrize("dims", [(3, 3), (4, 4)])
@pytest.mark.parametrize("routing_cls", TURN_MODELS)
class TestAcyclicity:
    def test_explicit_and_session_deciders_agree_on_freedom(self, dims,
                                                            routing_cls):
        routing = routing_cls(Mesh2D(*dims))
        graph = routing_dependency_graph(routing)
        # The DFS verdict comes with a certificate the checker accepted.
        by_dfs = find_cycle_dfs(graph).acyclic
        by_session = DeadlockQuerySession.for_routing(
            routing).is_deadlock_free()
        assert by_dfs == by_session
        # Each turn model forbids a turn class, so all are deadlock-free.
        assert by_dfs, f"{routing.name()} on {dims} must be acyclic"


class TestOddEvenRegistration:
    def test_odd_even_is_a_registered_mesh_routing(self):
        from repro.core.spec import ScenarioSpec, spec_registry

        assert "odd-even" in spec_registry().entry("mesh").routings
        spec = ScenarioSpec(kind="mesh", dims=(3, 3),
                            routing="odd_even").normalized()
        assert spec.routing == "odd-even"
        instance = spec.build()
        assert isinstance(instance.routing, OddEvenRouting)
