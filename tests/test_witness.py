"""Tests for the constructive Theorem 1 witnesses (cycle <-> deadlock)."""

import pytest

from repro.checking.graphs import find_cycle_dfs
from repro.core.deadlock import analyse_deadlock, is_deadlock
from repro.core.dependency import routing_dependency_graph
from repro.core.errors import SpecificationError
from repro.core.witness import (
    cycle_to_deadlock_configuration,
    verify_witness_roundtrip,
)
from repro.hermes.ports import witness_destination
from repro.network.mesh import Mesh2D
from repro.network.ring import Ring
from repro.ringnoc.instantiation import (
    build_clockwise_ring_instance,
    ring_witness_destination,
)
from repro.routing.adaptive import FullyAdaptiveMinimalRouting, ZigZagRouting
from repro.routing.ring import ClockwiseRingRouting
from repro.routing.xy import XYRouting
from repro.switching.wormhole import WormholeSwitching


def ring_cycle(size=4):
    routing = ClockwiseRingRouting(Ring(size))
    graph = routing_dependency_graph(routing)
    cycle = find_cycle_dfs(graph).cycle
    assert cycle
    return routing, cycle


class TestSufficiencyConstruction:
    def test_ring_cycle_yields_deadlock(self):
        routing, cycle = ring_cycle()
        witness = cycle_to_deadlock_configuration(
            cycle, routing, ring_witness_destination(routing.topology),
            capacity=1)
        assert is_deadlock(witness.configuration, WormholeSwitching())
        assert len(witness.travels) == len(cycle)

    def test_every_cycle_port_is_unavailable(self):
        routing, cycle = ring_cycle()
        witness = cycle_to_deadlock_configuration(
            cycle, routing, ring_witness_destination(routing.topology),
            capacity=1)
        unavailable = set(witness.configuration.state.unavailable_ports())
        assert set(cycle) <= unavailable

    def test_capacity_two_still_deadlocks(self):
        routing, cycle = ring_cycle()
        witness = cycle_to_deadlock_configuration(
            cycle, routing, ring_witness_destination(routing.topology),
            capacity=2)
        assert is_deadlock(witness.configuration, WormholeSwitching())

    def test_extra_flits_queue_at_the_source(self):
        routing, cycle = ring_cycle()
        witness = cycle_to_deadlock_configuration(
            cycle, routing, ring_witness_destination(routing.topology),
            capacity=1, extra_flits=2)
        assert all(travel.num_flits == 3 for travel in witness.travels)
        assert is_deadlock(witness.configuration, WormholeSwitching())

    def test_zigzag_mesh_cycle_yields_deadlock(self):
        mesh = Mesh2D(3, 3)
        routing = ZigZagRouting(mesh)
        cycle = find_cycle_dfs(routing_dependency_graph(routing)).cycle
        witness = cycle_to_deadlock_configuration(
            cycle, routing, lambda s, t: witness_destination(s, t, mesh),
            capacity=1)
        assert is_deadlock(witness.configuration, WormholeSwitching())

    def test_rejects_too_short_cycles(self):
        routing, cycle = ring_cycle()
        with pytest.raises(SpecificationError):
            cycle_to_deadlock_configuration(
                cycle[:1], routing,
                ring_witness_destination(routing.topology))

    def test_rejects_adaptive_routing(self):
        mesh = Mesh2D(2, 2)
        routing = FullyAdaptiveMinimalRouting(mesh)
        cycle = find_cycle_dfs(routing_dependency_graph(routing)).cycle
        with pytest.raises(SpecificationError):
            cycle_to_deadlock_configuration(
                cycle, routing, lambda s, t: witness_destination(s, t, mesh))

    def test_rejects_wrong_witness_function(self):
        routing, cycle = ring_cycle()
        # A witness that always points at the first node cannot justify every
        # edge of the cycle.
        def bad_witness(source, target):
            from repro.network.port import Direction, Port, PortName

            return Port(0, 0, PortName.LOCAL, Direction.OUT)

        with pytest.raises(SpecificationError):
            cycle_to_deadlock_configuration(cycle, routing, bad_witness,
                                            capacity=1)

    def test_acyclic_routing_has_no_cycle_to_start_from(self):
        graph = routing_dependency_graph(XYRouting(Mesh2D(3, 3)))
        assert find_cycle_dfs(graph).cycle is None


class TestRoundTrip:
    def test_roundtrip_on_the_ring(self):
        instance = build_clockwise_ring_instance(5)
        graph = routing_dependency_graph(instance.routing)
        cycle = find_cycle_dfs(graph).cycle
        roundtrip = verify_witness_roundtrip(
            cycle, instance.routing, instance.switching,
            ring_witness_destination(instance.topology), capacity=1)
        assert roundtrip.success
        assert roundtrip.is_deadlock
        assert roundtrip.recovered_cycle
        # The recovered cycle consists of ports of the original cycle.
        assert set(roundtrip.recovered_cycle) <= set(cycle)

    def test_roundtrip_analysis_matches_direct_analysis(self):
        instance = build_clockwise_ring_instance(4)
        graph = routing_dependency_graph(instance.routing)
        cycle = find_cycle_dfs(graph).cycle
        roundtrip = verify_witness_roundtrip(
            cycle, instance.routing, instance.switching,
            ring_witness_destination(instance.topology), capacity=1)
        direct = analyse_deadlock(roundtrip.witness.configuration,
                                  instance.switching)
        assert direct.is_deadlock == roundtrip.is_deadlock
        assert direct.cycle == roundtrip.recovered_cycle
