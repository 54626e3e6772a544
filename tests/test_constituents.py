"""Tests for the generic constituent interfaces and their derived behaviour."""

import pytest

from repro.core.constituents import IdentityInjection, RoutingFunction
from repro.core.errors import (
    GeNoCError,
    InjectionError,
    ObligationViolation,
    RoutingError,
    SpecificationError,
    SwitchingError,
)
from repro.hermes import build_hermes_instance
from repro.network.mesh import Mesh2D
from repro.network.port import Direction, Port, PortName
from repro.routing.xy import XYRouting


@pytest.fixture
def mesh():
    return Mesh2D(3, 3)


@pytest.fixture
def rxy(mesh):
    return XYRouting(mesh)


class TestErrorHierarchy:
    @pytest.mark.parametrize("error_cls", [RoutingError, SwitchingError,
                                           InjectionError,
                                           SpecificationError])
    def test_all_errors_are_genoc_errors(self, error_cls):
        assert issubclass(error_cls, GeNoCError)

    def test_obligation_violation_carries_the_obligation_name(self):
        error = ObligationViolation("C-3", "a cycle exists")
        assert error.obligation == "C-3"
        assert "C-3" in str(error)
        assert isinstance(error, GeNoCError)


class TestIdentityInjection:
    def test_inject_is_identity(self, mesh):
        instance = build_hermes_instance(3, 3)
        config = instance.initial_configuration(
            [instance.make_travel((0, 0), (2, 2))])
        injection = IdentityInjection()
        assert injection.inject(config) is config
        # The generic identity injection already presents itself as the
        # paper's Iid (obligation (C-4) is immediate for it).
        assert injection.name() == "Iid"

    def test_iid_name(self):
        from repro.hermes.injection import Iid

        assert Iid().name() == "Iid"


class TestRoutingFunctionDerivedBehaviour:
    def test_next_hop_raises_when_no_hop_exists(self, rxy, mesh):
        destination = mesh.node_at(1, 1).local_out
        with pytest.raises(RoutingError):
            rxy.next_hop(destination, destination)

    def test_deterministic_flag_default(self, rxy):
        assert rxy.is_deterministic

    def test_route_configuration_assigns_routes_and_progress(self, rxy, mesh):
        instance = build_hermes_instance(3, 3)
        travels = [instance.make_travel((0, 0), (2, 2), num_flits=2),
                   instance.make_travel((1, 1), (0, 0), num_flits=1)]
        config = instance.initial_configuration(travels)
        routed = rxy.route_configuration(config)
        assert routed.all_routed()
        assert set(routed.progress) == {t.travel_id for t in travels}
        for travel in routed.travels:
            assert travel.route[0] == travel.source
            assert travel.route[-1] == travel.destination

    def test_route_configuration_is_idempotent(self, rxy):
        instance = build_hermes_instance(3, 3)
        config = instance.initial_configuration(
            [instance.make_travel((0, 0), (2, 2))])
        once = rxy.route_configuration(config)
        twice = rxy.route_configuration(once)
        assert [t.route for t in twice.travels] == \
            [t.route for t in once.travels]

    def test_route_configuration_rejects_unreachable_destination(self, rxy):
        instance = build_hermes_instance(3, 3)
        # A travel whose source is a local *out* port cannot route anywhere.
        from repro.core.travel import Travel

        bogus = Travel(travel_id=999,
                       source=Port(0, 0, PortName.LOCAL, Direction.OUT),
                       destination=Port(2, 2, PortName.LOCAL, Direction.OUT))
        config = instance.initial_configuration([bogus])
        with pytest.raises(RoutingError):
            rxy.route_configuration(config)

    def test_compute_route_hop_bound(self, mesh):
        class LoopingRouting(XYRouting):
            """A broken routing function that never reaches the destination."""

            def _route_from_in_port(self, current, destination):
                # Bounce between the East and West out-ports of column 1.
                from repro.network.port import trans

                if current.x == 1:
                    return [trans(current, PortName.EAST, Direction.OUT)]
                if current.x > 1:
                    return [trans(current, PortName.WEST, Direction.OUT)]
                return [trans(current, PortName.EAST, Direction.OUT)]

        looping = LoopingRouting(mesh)
        with pytest.raises(RoutingError):
            looping.compute_route(mesh.node_at(1, 0).local_in,
                                  mesh.node_at(0, 2).local_out)

    def test_compute_route_holds_the_topology_own_ports(self, rxy, mesh):
        source = Port(0, 0, PortName.LOCAL, Direction.IN)
        destination = Port(2, 1, PortName.LOCAL, Direction.OUT)
        route = rxy.compute_route(source, destination)
        assert route[0] == source and route[-1] == destination
        assert all(mesh.intern(port) is port for port in route)

    def test_compute_route_rejects_a_hop_outside_the_topology(self, mesh):
        outside = Port(9, 9, PortName.EAST, Direction.OUT)

        class EscapingRouting(XYRouting):
            def _route_from_in_port(self, current, destination):
                return [outside]

        assert mesh.intern(outside) is None
        with pytest.raises(RoutingError, match=f"non-existent port {outside}"):
            EscapingRouting(mesh).compute_route(mesh.node_at(1, 0).local_in,
                                                mesh.node_at(0, 2).local_out)

    def test_non_deterministic_next_hop_rejected_when_claimed(self, mesh):
        class LyingRouting(XYRouting):
            def _route_from_in_port(self, current, destination):
                from repro.network.port import trans

                return [trans(current, PortName.EAST, Direction.OUT),
                        trans(current, PortName.SOUTH, Direction.OUT)]

        lying = LyingRouting(mesh)
        with pytest.raises(RoutingError):
            lying.next_hop(mesh.node_at(0, 0).local_in,
                           mesh.node_at(2, 2).local_out)

    def test_names(self, rxy):
        assert rxy.name() == "Rxy"
        assert RoutingFunction.name(rxy) == "XYRouting"

    def test_out_port_at_boundary_raises(self, mesh):
        routing = XYRouting(mesh)
        # Node (0,0) has no West out-port; asking for one is a routing error.
        with pytest.raises(RoutingError):
            routing._out_port(mesh.node_at(0, 0).local_in, PortName.WEST)


class TestSwitchingDefaults:
    def test_default_measure_is_the_flit_hop_measure(self):
        from repro.core.measure import flit_hop_measure
        from repro.switching.wormhole import WormholeSwitching

        instance = build_hermes_instance(2, 2)
        config = instance.routing.route_configuration(
            instance.initial_configuration(
                [instance.make_travel((0, 0), (1, 1), num_flits=2)]))
        assert WormholeSwitching().measure(config) == flit_hop_measure(config)
