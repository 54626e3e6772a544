"""Tests for the three global theorem checkers."""

import pytest

from repro.core.theorems import (
    check_correctness,
    check_deadlock_freedom,
    check_evacuation,
    check_no_reachable_deadlock,
    derive_evacuation,
)
from repro.hermes.instantiation import build_hermes_instance
from repro.network.mesh import Mesh2D
from repro.ringnoc.instantiation import (
    build_chain_ring_instance,
    build_clockwise_ring_instance,
)
from repro.routing.adaptive import ZigZagRouting


@pytest.fixture
def instance():
    return build_hermes_instance(3, 3, buffer_capacity=2)


def run(instance, travels):
    original = instance.initial_configuration(travels)
    result = instance.engine().run(original.copy())
    return original, result


class TestCorrectnessTheorem:
    def test_holds_on_normal_runs(self, instance):
        travels = [instance.make_travel((0, 0), (2, 2), num_flits=3),
                   instance.make_travel((2, 0), (0, 2), num_flits=2)]
        original, result = run(instance, travels)
        theorem = check_correctness(instance, original, result)
        assert theorem.holds
        assert theorem.checks > 0

    def test_detects_foreign_arrival(self, instance):
        travels = [instance.make_travel((0, 0), (1, 1), num_flits=1)]
        original, result = run(instance, travels)
        # Forge an arrival that was never sent.
        forged = instance.make_travel((2, 2), (0, 0), num_flits=1)
        forged = forged.with_route(instance.routing.compute_route(
            forged.source, forged.destination))
        result.final.arrived.append(forged)
        theorem = check_correctness(instance, original, result)
        assert not theorem.holds
        assert any("never sent" in text for text in theorem.counterexamples)

    def test_detects_wrong_destination(self, instance):
        travels = [instance.make_travel((0, 0), (1, 1), num_flits=1)]
        original, result = run(instance, travels)
        from dataclasses import replace

        tampered = replace(result.final.arrived[0],
                           destination=instance.mesh.node_at(2, 2).local_out)
        result.final.arrived[0] = tampered
        theorem = check_correctness(instance, original, result)
        assert not theorem.holds

    def test_detects_invalid_route(self, instance):
        travels = [instance.make_travel((0, 0), (2, 0), num_flits=1)]
        original, result = run(instance, travels)
        from dataclasses import replace

        arrived = result.final.arrived[0]
        # Replace the route by one that teleports across the mesh.
        bad_route = (arrived.route[0], arrived.route[-1])
        result.final.arrived[0] = replace(arrived, route=bad_route)
        theorem = check_correctness(instance, original, result)
        assert not theorem.holds

    def test_detects_route_not_allowed_by_routing_function(self, instance):
        # A physically valid path that violates XY order (goes south first).
        travels = [instance.make_travel((0, 0), (1, 1), num_flits=1)]
        original, result = run(instance, travels)
        from dataclasses import replace

        mesh = instance.mesh
        from repro.network.port import Direction, Port, PortName

        yx_path = (
            mesh.node_at(0, 0).local_in,
            Port(0, 0, PortName.SOUTH, Direction.OUT),
            Port(0, 1, PortName.NORTH, Direction.IN),
            Port(0, 1, PortName.EAST, Direction.OUT),
            Port(1, 1, PortName.WEST, Direction.IN),
            mesh.node_at(1, 1).local_out,
        )
        result.final.arrived[0] = replace(result.final.arrived[0],
                                          route=yx_path)
        theorem = check_correctness(instance, original, result)
        assert not theorem.holds
        assert any("not allowed" in text for text in theorem.counterexamples)


class TestDeadlockTheorem:
    def test_derived_from_obligations_for_hermes(self, instance):
        theorem = check_deadlock_freedom(instance)
        assert theorem.holds
        assert len(theorem.obligations) == 3
        assert all(ob.holds for ob in theorem.obligations)

    def test_derived_for_chain_ring(self):
        theorem = check_deadlock_freedom(build_chain_ring_instance(5))
        assert theorem.holds

    def test_requires_a_declared_dependency_graph(self):
        instance = build_clockwise_ring_instance(4)
        with pytest.raises(ValueError):
            check_deadlock_freedom(instance)

    def test_fails_when_routing_does_not_match_declared_graph(self):
        # Pair the HERMES Exy_dep with zig-zag routing: (C-1) must fail.
        instance = build_hermes_instance(3, 3)
        broken = build_hermes_instance(3, 3,
                                       routing=ZigZagRouting(Mesh2D(3, 3)))
        broken.dependency_spec = instance.dependency_spec
        broken.witness_destination = instance.witness_destination
        theorem = check_deadlock_freedom(broken)
        assert not theorem.holds

    def test_state_space_facet_for_small_hermes(self):
        instance = build_hermes_instance(2, 2, buffer_capacity=1)
        travels = [instance.make_travel((0, 0), (1, 1), num_flits=2),
                   instance.make_travel((1, 1), (0, 0), num_flits=2)]
        theorem = check_no_reachable_deadlock(instance, travels, capacity=1)
        assert theorem.holds
        assert theorem.details["complete"]

    def test_state_space_facet_finds_ring_deadlock(self):
        instance = build_clockwise_ring_instance(4)
        travels = [instance.make_travel((i, 0), ((i + 2) % 4, 0), num_flits=3)
                   for i in range(4)]
        theorem = check_no_reachable_deadlock(instance, travels, capacity=1)
        assert not theorem.holds


class TestEvacuationTheorem:
    def test_holds_on_normal_runs(self, instance):
        travels = [instance.make_travel((0, 0), (2, 2), num_flits=3),
                   instance.make_travel((1, 2), (1, 0), num_flits=2)]
        original, result = run(instance, travels)
        theorem = check_evacuation(instance, original, result)
        assert theorem.holds
        assert theorem.details["sent"] == 2
        assert theorem.details["arrived"] == 2

    def test_fails_when_an_arrival_is_missing(self, instance):
        travels = [instance.make_travel((0, 0), (2, 2), num_flits=2)]
        original, result = run(instance, travels)
        result.final.arrived.clear()
        theorem = check_evacuation(instance, original, result)
        assert not theorem.holds
        assert any("missing" in text for text in theorem.counterexamples)

    def test_fails_on_deadlocked_runs(self):
        instance = build_clockwise_ring_instance(4)
        travels = [instance.make_travel((i, 0), ((i + 2) % 4, 0), num_flits=4)
                   for i in range(4)]
        original = instance.initial_configuration(travels, capacity=1)
        result = instance.engine().run(original.copy())
        assert result.deadlocked
        theorem = check_evacuation(instance, original, result)
        assert not theorem.holds

    def test_derived_facet(self, instance):
        workloads = [[instance.make_travel((0, 0), (2, 2), num_flits=2),
                      instance.make_travel((2, 2), (0, 0), num_flits=2)]]
        configurations = [instance.initial_configuration(w) for w in workloads]
        theorem = derive_evacuation(instance, configurations)
        assert theorem.holds
        assert len(theorem.obligations) == 2
