"""Tests for the proof-obligation checkers (C-1) ... (C-5)."""

import pytest

from repro.core.constituents import IdentityInjection, InjectionMethod
from repro.core.dependency import ExplicitDependencySpec
from repro.core.errors import ObligationViolation
from repro.core.measure import flit_hop_measure, pending_travel_measure
from repro.core.obligations import (
    check_c1,
    check_c2,
    check_c3,
    check_c3_routing_induced,
    check_c4,
    check_c5,
)
from repro.hermes.dependency import ExyDependencySpec
from repro.hermes.instantiation import build_hermes_instance
from repro.network.mesh import Mesh2D
from repro.network.port import Direction, Port, PortName
from repro.routing.adaptive import ZigZagRouting
from repro.routing.xy import XYRouting


@pytest.fixture
def instance():
    return build_hermes_instance(3, 3, buffer_capacity=2)


@pytest.fixture
def workload_configs(instance):
    travels = [instance.make_travel((0, 0), (2, 2), num_flits=3),
               instance.make_travel((2, 2), (0, 0), num_flits=3),
               instance.make_travel((1, 0), (1, 2), num_flits=2)]
    config = instance.routing.route_configuration(
        instance.initial_configuration(travels))
    return [config]


class TestC1:
    def test_holds_for_hermes(self, instance):
        result = check_c1(instance.routing, instance.dependency_spec)
        assert result.holds
        assert result.checks > 0
        assert result.counterexamples == []

    def test_fails_for_incomplete_declared_graph(self, instance):
        mesh = instance.mesh
        # Declare only the local-delivery edges: every cardinal hop of XY is
        # then an undeclared dependency.
        edges = {}
        for port in mesh.ports:
            if port.is_input:
                edges[port] = {Port(port.x, port.y, PortName.LOCAL,
                                    Direction.OUT)}
        broken = ExplicitDependencySpec(mesh, edges)
        result = check_c1(instance.routing, broken)
        assert not result.holds
        assert result.counterexamples

    def test_counterexamples_are_bounded(self, instance):
        broken = ExplicitDependencySpec(instance.mesh, {})
        result = check_c1(instance.routing, broken, max_counterexamples=3)
        assert not result.holds
        assert len(result.counterexamples) == 3

    def test_raise_if_violated(self, instance):
        broken = ExplicitDependencySpec(instance.mesh, {})
        result = check_c1(instance.routing, broken)
        with pytest.raises(ObligationViolation):
            result.raise_if_violated()

    def test_str_mentions_status(self, instance):
        result = check_c1(instance.routing, instance.dependency_spec)
        assert "holds" in str(result)


class TestC2:
    def test_holds_for_hermes_with_find_dest(self, instance):
        result = check_c2(instance.routing, instance.dependency_spec,
                          instance.witness_destination)
        assert result.holds
        assert result.details["fallback_witnesses"] == 0

    def test_holds_for_hermes_by_enumeration(self, instance):
        result = check_c2(instance.routing, instance.dependency_spec, None)
        assert result.holds

    def test_fails_for_overdeclared_graph(self, instance):
        # Add an edge XY routing can never take: a U-turn from the North
        # in-port back to the North out-port of an interior node.
        mesh = instance.mesh
        spec = ExyDependencySpec(mesh)
        extra_source = Port(1, 1, PortName.NORTH, Direction.IN)
        extra_target = Port(1, 1, PortName.NORTH, Direction.OUT)
        edges = {port: spec.edges_from(port) for port in mesh.ports}
        edges[extra_source] = edges[extra_source] | {extra_target}
        overdeclared = ExplicitDependencySpec(mesh, edges)
        result = check_c2(instance.routing, overdeclared, None)
        assert not result.holds
        assert any("no witness" in text for text in result.counterexamples)

    def test_checks_count_equals_edge_count(self, instance):
        result = check_c2(instance.routing, instance.dependency_spec,
                          instance.witness_destination)
        assert result.checks == len(instance.dependency_spec.edges())


class TestC3:
    def test_holds_for_exy(self, instance):
        result = check_c3(instance.dependency_spec)
        assert result.holds
        assert result.details["certificate"] == "numbering"
        assert result.checks == result.details["edges"]

    def test_fails_for_cyclic_spec(self):
        mesh = Mesh2D(2, 2)
        a = Port(0, 0, PortName.EAST, Direction.OUT)
        b = Port(1, 0, PortName.WEST, Direction.IN)
        spec = ExplicitDependencySpec(mesh, {a: {b}, b: {a}})
        result = check_c3(spec)
        assert not result.holds
        assert "cycle" in result.counterexamples[0]
        assert "cycle" in result.details
        assert result.details["certificate"] == "cycle"

    def test_routing_induced_variant_positive(self):
        result = check_c3_routing_induced(XYRouting(Mesh2D(3, 3)))
        assert result.holds

    def test_routing_induced_variant_negative(self):
        result = check_c3_routing_induced(ZigZagRouting(Mesh2D(3, 3)))
        assert not result.holds
        assert "cycle" in result.details


class TestC4:
    def test_identity_injection_satisfies_c4(self, instance, workload_configs):
        result = check_c4(instance.injection, workload_configs)
        assert result.holds
        assert result.checks == len(workload_configs)

    def test_non_identity_injection_fails_c4(self, instance, workload_configs):
        class DroppingInjection(InjectionMethod):
            def inject(self, config):
                from repro.core.configuration import Configuration

                return Configuration(travels=config.travels[1:],
                                     state=config.state,
                                     arrived=config.arrived,
                                     progress=config.progress)

        result = check_c4(DroppingInjection(), workload_configs)
        assert not result.holds

    def test_vacuous_with_no_configurations(self, instance):
        result = check_c4(IdentityInjection(), [])
        assert result.holds
        assert result.checks == 0


class TestC5:
    def test_flit_hop_measure_discharges_c5(self, instance, workload_configs):
        result = check_c5(instance.switching, flit_hop_measure,
                          workload_configs)
        assert result.holds
        assert result.checks > 0
        assert result.details["total_steps"] == result.checks

    def test_pending_travel_measure_fails_c5(self, instance, workload_configs):
        result = check_c5(instance.switching, pending_travel_measure,
                          workload_configs)
        assert not result.holds

    def test_non_strict_mode(self, instance, workload_configs):
        from repro.core.measure import route_length_measure

        strict = check_c5(instance.switching, route_length_measure,
                          workload_configs, strict=True)
        relaxed = check_c5(instance.switching, route_length_measure,
                           workload_configs, strict=False)
        # The paper's measure is only non-increasing in the flit-accurate
        # model: strict fails, non-strict holds.
        assert relaxed.holds
        assert not strict.holds

    def test_step_bound_reported(self, instance, workload_configs):
        result = check_c5(instance.switching, flit_hop_measure,
                          workload_configs, max_steps=1)
        assert not result.holds
        assert "exceeded" in result.counterexamples[0]
