"""Property-based tests of the routing functions (hypothesis)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.mesh import Mesh2D
from repro.network.port import Direction, Port, PortName
from repro.routing.turn_model import (
    NegativeFirstRouting,
    NorthLastRouting,
    WestFirstRouting,
)
from repro.routing.xy import XYRouting
from repro.routing.yx import YXRouting
from tests.routing_reference import (
    dimension_order_reaches,
    occurring_pairs,
    reachable_pairs,
)

mesh_sizes = st.tuples(st.integers(1, 4), st.integers(1, 4))
coords = st.tuples(st.integers(0, 3), st.integers(0, 3))


def clamp(coord, mesh):
    return (min(coord[0], mesh.width - 1), min(coord[1], mesh.height - 1))


@st.composite
def mesh_and_pair(draw):
    width, height = draw(mesh_sizes)
    mesh = Mesh2D(width, height)
    source = clamp(draw(coords), mesh)
    target = clamp(draw(coords), mesh)
    return mesh, source, target


class TestDimensionOrderProperties:
    @given(mesh_and_pair())
    @settings(max_examples=60, deadline=None)
    def test_xy_routes_terminate_at_destination(self, data):
        mesh, source, target = data
        routing = XYRouting(mesh)
        route = routing.compute_route(mesh.node_at(*source).local_in,
                                      mesh.node_at(*target).local_out)
        assert route[-1] == mesh.node_at(*target).local_out
        assert route[0] == mesh.node_at(*source).local_in

    @given(mesh_and_pair())
    @settings(max_examples=60, deadline=None)
    def test_xy_routes_are_minimal(self, data):
        mesh, source, target = data
        routing = XYRouting(mesh)
        route = routing.compute_route(mesh.node_at(*source).local_in,
                                      mesh.node_at(*target).local_out)
        node_hops = sum(1 for a, b in zip(route, route[1:])
                        if a.node != b.node)
        assert node_hops == mesh.manhattan_distance(source, target)

    @given(mesh_and_pair())
    @settings(max_examples=60, deadline=None)
    def test_xy_and_yx_routes_have_equal_length(self, data):
        mesh, source, target = data
        xy_route = XYRouting(mesh).compute_route(
            mesh.node_at(*source).local_in, mesh.node_at(*target).local_out)
        yx_route = YXRouting(mesh).compute_route(
            mesh.node_at(*source).local_in, mesh.node_at(*target).local_out)
        assert len(xy_route) == len(yx_route)

    @given(mesh_and_pair())
    @settings(max_examples=60, deadline=None)
    def test_routes_never_repeat_a_port(self, data):
        mesh, source, target = data
        routing = XYRouting(mesh)
        route = routing.compute_route(mesh.node_at(*source).local_in,
                                      mesh.node_at(*target).local_out)
        assert len(route) == len(set(route))

    @given(mesh_and_pair())
    @settings(max_examples=60, deadline=None)
    def test_every_route_hop_is_allowed_by_next_hops(self, data):
        mesh, source, target = data
        routing = XYRouting(mesh)
        destination = mesh.node_at(*target).local_out
        route = routing.compute_route(mesh.node_at(*source).local_in,
                                      destination)
        for current, following in zip(route, route[1:]):
            assert following in routing.next_hops(current, destination)

    @given(st.integers(2, 4), st.integers(2, 4))
    @settings(max_examples=15, deadline=None)
    def test_closed_form_reachability_equals_occurring_pairs_xy(self, w, h):
        mesh = Mesh2D(w, h)
        routing = XYRouting(mesh)
        pairs = occurring_pairs(routing)
        for port in mesh.ports:
            for destination in routing.destinations():
                occurs = (port, destination) in pairs
                closed_form = dimension_order_reaches("xy", port, destination)
                assert occurs == closed_form, (str(port), str(destination))
                assert routing.reachable(port, destination) == occurs

    @given(st.integers(2, 3), st.integers(2, 4))
    @settings(max_examples=10, deadline=None)
    def test_closed_form_reachability_equals_occurring_pairs_yx(self, w, h):
        mesh = Mesh2D(w, h)
        routing = YXRouting(mesh)
        pairs = occurring_pairs(routing)
        for port in mesh.ports:
            for destination in routing.destinations():
                occurs = (port, destination) in pairs
                assert occurs == dimension_order_reaches("yx", port,
                                                         destination)
                assert routing.reachable(port, destination) == occurs

    @pytest.mark.parametrize("size", range(3, 9))
    @pytest.mark.parametrize("routing_cls", [XYRouting, YXRouting])
    def test_closed_form_equals_reachable_on_healthy_meshes(self, size,
                                                            routing_cls):
        routing = routing_cls(Mesh2D(size, size))
        closed_form = frozenset(
            (port, destination) for port in routing.topology.ports
            for destination in routing.destinations()
            if dimension_order_reaches(routing.order, port, destination))
        assert reachable_pairs(routing) == closed_form


class TestTurnModelProperties:
    @given(mesh_and_pair(),
           st.sampled_from([WestFirstRouting, NorthLastRouting,
                            NegativeFirstRouting]))
    @settings(max_examples=60, deadline=None)
    def test_turn_model_routes_terminate(self, data, routing_cls):
        mesh, source, target = data
        routing = routing_cls(mesh)
        route = routing.compute_route(mesh.node_at(*source).local_in,
                                      mesh.node_at(*target).local_out)
        assert route[-1] == mesh.node_at(*target).local_out

    @given(mesh_and_pair(),
           st.sampled_from([WestFirstRouting, NorthLastRouting,
                            NegativeFirstRouting]))
    @settings(max_examples=40, deadline=None)
    def test_turn_model_every_adaptive_branch_stays_minimal(self, data,
                                                            routing_cls):
        mesh, source, target = data
        routing = routing_cls(mesh)
        destination = mesh.node_at(*target).local_out
        # Breadth-first over every adaptive branch: each next hop must not
        # increase the manhattan distance of the node to the destination.
        frontier = [mesh.node_at(*source).local_in]
        seen = set()
        while frontier:
            port = frontier.pop()
            if port in seen or port == destination:
                continue
            seen.add(port)
            for successor in routing.next_hops(port, destination):
                before = mesh.manhattan_distance(port.node, destination.node)
                after = mesh.manhattan_distance(successor.node,
                                                destination.node)
                assert after <= before
                frontier.append(successor)
