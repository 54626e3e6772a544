"""Tests for the deadlock predicate Ω and the deadlock analysis."""

import pytest

from repro.checking.graphs import find_cycle_dfs
from repro.core.deadlock import (
    analyse_deadlock,
    count_blocked_messages,
    is_deadlock,
)
from repro.core.dependency import routing_dependency_graph
from repro.core.witness import cycle_to_deadlock_configuration
from repro.hermes.instantiation import build_hermes_instance
from repro.ringnoc.instantiation import (
    build_clockwise_ring_instance,
    ring_witness_destination,
)
from repro.switching.wormhole import WormholeSwitching


@pytest.fixture
def hermes():
    return build_hermes_instance(3, 3, buffer_capacity=1)


@pytest.fixture
def ring():
    return build_clockwise_ring_instance(4)


def ring_deadlock_configuration(ring):
    graph = routing_dependency_graph(ring.routing)
    cycle = find_cycle_dfs(graph).cycle
    witness = cycle_to_deadlock_configuration(
        cycle, ring.routing, ring_witness_destination(ring.topology),
        capacity=1)
    return witness


class TestOmega:
    def test_empty_configuration_is_not_a_deadlock(self, hermes):
        config = hermes.initial_configuration([])
        assert not is_deadlock(config, hermes.switching)

    def test_fresh_workload_is_not_a_deadlock(self, hermes):
        travels = [hermes.make_travel((0, 0), (2, 2), num_flits=2)]
        config = hermes.routing.route_configuration(
            hermes.initial_configuration(travels))
        assert not is_deadlock(config, hermes.switching)

    def test_constructed_ring_deadlock_is_recognised(self, ring):
        witness = ring_deadlock_configuration(ring)
        assert is_deadlock(witness.configuration, ring.switching)

    def test_xy_simulation_never_reaches_deadlock(self, hermes):
        travels = [hermes.make_travel((x, y), (2 - x, 2 - y), num_flits=3)
                   for x in range(3) for y in range(3) if (x, y) != (1, 1)]
        config = hermes.routing.route_configuration(
            hermes.initial_configuration(travels))
        switching = hermes.switching
        steps = 0
        while config.travels and steps < 1000:
            assert not is_deadlock(config, switching)
            config = switching.step(config)
            steps += 1
        assert not config.travels


class TestDeadlockAnalysis:
    def test_analysis_of_non_deadlock_is_trivial(self, hermes):
        travels = [hermes.make_travel((0, 0), (1, 1), num_flits=1)]
        config = hermes.routing.route_configuration(
            hermes.initial_configuration(travels))
        analysis = analyse_deadlock(config, hermes.switching)
        assert not analysis.is_deadlock
        assert analysis.cycle is None
        assert analysis.blocked == []

    def test_analysis_extracts_cycle_from_ring_deadlock(self, ring):
        witness = ring_deadlock_configuration(ring)
        analysis = analyse_deadlock(witness.configuration, ring.switching)
        assert analysis.is_deadlock
        assert analysis.cycle
        # The recovered cycle consists of unavailable ports.
        unavailable = set(analysis.unavailable_ports)
        assert all(port in unavailable for port in analysis.cycle)

    def test_blocked_messages_point_to_unavailable_ports(self, ring):
        witness = ring_deadlock_configuration(ring)
        analysis = analyse_deadlock(witness.configuration, ring.switching)
        unavailable = set(analysis.unavailable_ports)
        assert analysis.blocked
        for blocked in analysis.blocked:
            assert blocked.wanted in unavailable

    def test_wait_edges_form_the_knot(self, ring):
        witness = ring_deadlock_configuration(ring)
        analysis = analyse_deadlock(witness.configuration, ring.switching)
        assert len(analysis.wait_edges) == len(witness.cycle)

    def test_cycle_is_closed_under_wait_successor(self, ring):
        witness = ring_deadlock_configuration(ring)
        analysis = analyse_deadlock(witness.configuration, ring.switching)
        successor = dict(analysis.wait_edges)
        cycle = analysis.cycle
        for index, port in enumerate(cycle):
            assert successor[port] == cycle[(index + 1) % len(cycle)]


class TestBlockedCount:
    def test_counts_zero_for_empty_network(self, hermes):
        travels = [hermes.make_travel((0, 0), (2, 2), num_flits=2)]
        config = hermes.routing.route_configuration(
            hermes.initial_configuration(travels))
        assert count_blocked_messages(config, hermes.switching) == 0

    def test_counts_all_messages_in_a_deadlock(self, ring):
        witness = ring_deadlock_configuration(ring)
        blocked = count_blocked_messages(witness.configuration, ring.switching)
        assert blocked == len(witness.travels)
