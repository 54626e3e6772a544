"""End-to-end integration tests: Theorem 1 and Theorem 2 across designs.

These tests validate the paper's central claims by cross-checking the three
independent artefacts the library provides for each design:

* the dependency-graph condition (obligation (C-3), Theorem 1);
* exhaustive state-space exploration of small workloads (every interleaving);
* concrete GeNoC simulation runs (Theorem 2 / evacuation).
"""

import pytest

from repro.checking.bmc import explore_configuration_space
from repro.checking.graphs import find_cycle_dfs
from repro.core.dependency import routing_dependency_graph
from repro.core.obligations import check_c3_routing_induced
from repro.core.pipeline import verify_instance
from repro.core.witness import verify_witness_roundtrip
from repro.hermes.instantiation import build_hermes_instance
from repro.hermes.ports import witness_destination
from repro.network.mesh import Mesh2D
from repro.ringnoc.instantiation import (
    build_chain_ring_instance,
    build_clockwise_ring_instance,
    ring_witness_destination,
)
from repro.routing.adaptive import ZigZagRouting
from repro.routing.turn_model import WestFirstRouting
from repro.routing.yx import YXRouting
from repro.simulation.simulator import Simulator
from repro.simulation.workloads import standard_suite, uniform_random_traffic
from repro.switching.wormhole import WormholeSwitching


class TestTheorem1PositiveDesigns:
    """Acyclic dependency graph ==> no reachable deadlock (any interleaving)."""

    @pytest.mark.parametrize("build", [
        lambda: build_hermes_instance(2, 2, buffer_capacity=1),
        lambda: build_chain_ring_instance(4, buffer_capacity=1),
    ])
    def test_acyclic_and_exhaustively_deadlock_free(self, build):
        instance = build()
        assert check_c3_routing_induced(instance.routing).holds
        nodes = [node.coordinates for node in instance.topology.nodes]
        travels = [instance.make_travel(nodes[i], nodes[-1 - i], num_flits=2)
                   for i in range(min(3, len(nodes) // 2 + 1))
                   if nodes[i] != nodes[-1 - i]]
        search = explore_configuration_space(instance, travels, capacity=1,
                                             max_states=300_000)
        assert search.complete
        assert not search.deadlock_found

    @pytest.mark.parametrize("routing_cls", [YXRouting, WestFirstRouting])
    def test_other_acyclic_mesh_routings_do_not_deadlock(self, routing_cls):
        mesh = Mesh2D(2, 2)
        instance = build_hermes_instance(2, 2, buffer_capacity=1,
                                         routing=routing_cls(mesh))
        assert check_c3_routing_induced(instance.routing).holds
        travels = [instance.make_travel((0, 0), (1, 1), num_flits=2),
                   instance.make_travel((1, 1), (0, 0), num_flits=2),
                   instance.make_travel((1, 0), (0, 1), num_flits=2)]
        search = explore_configuration_space(instance, travels, capacity=1,
                                             max_states=300_000)
        assert search.complete
        assert not search.deadlock_found


class TestTheorem1NegativeDesigns:
    """Cyclic dependency graph ==> a deadlock can be constructed AND reached."""

    def test_clockwise_ring_full_story(self):
        instance = build_clockwise_ring_instance(4)
        # (1) the condition fails,
        assert not check_c3_routing_induced(instance.routing).holds
        # (2) the cycle can be turned into a concrete deadlock and back,
        cycle = find_cycle_dfs(routing_dependency_graph(instance.routing)).cycle
        roundtrip = verify_witness_roundtrip(
            cycle, instance.routing, instance.switching,
            ring_witness_destination(instance.topology), capacity=1)
        assert roundtrip.success
        # (3) a deadlock is reachable from an empty network,
        travels = [instance.make_travel((i, 0), ((i + 2) % 4, 0), num_flits=3)
                   for i in range(4)]
        search = explore_configuration_space(instance, travels, capacity=1)
        assert search.deadlock_found
        # (4) and the deterministic GeNoC run also ends in deadlock.
        result = instance.run(travels, capacity=1)
        assert result.deadlocked

    def test_zigzag_mesh_witness(self):
        mesh = Mesh2D(3, 3)
        routing = ZigZagRouting(mesh)
        assert not check_c3_routing_induced(routing).holds
        cycle = find_cycle_dfs(routing_dependency_graph(routing)).cycle
        roundtrip = verify_witness_roundtrip(
            cycle, routing, WormholeSwitching(),
            lambda s, t: witness_destination(s, t, mesh), capacity=1)
        assert roundtrip.success


class TestTheorem2Evacuation:
    @pytest.mark.parametrize("width,height,capacity", [(2, 2, 1), (3, 3, 2),
                                                       (4, 4, 2), (4, 2, 1)])
    def test_standard_suite_evacuates(self, width, height, capacity):
        instance = build_hermes_instance(width, height,
                                         buffer_capacity=capacity)
        simulator = Simulator(instance)
        for workload in standard_suite(instance, num_flits=3, seed=1):
            result = simulator.run(workload)
            assert result.genoc_result.evacuated, workload.name
            assert result.correctness_ok
            assert result.evacuation_ok

    def test_heavy_random_load_evacuates(self):
        instance = build_hermes_instance(4, 4, buffer_capacity=2)
        workload = uniform_random_traffic(instance, num_messages=64,
                                          num_flits=5, seed=11)
        result = Simulator(instance).run(workload)
        assert result.genoc_result.evacuated
        assert result.metrics.messages == 64

    def test_measure_reaches_zero_exactly_at_evacuation(self):
        instance = build_hermes_instance(3, 3)
        travels = [instance.make_travel((0, 0), (2, 2), num_flits=4),
                   instance.make_travel((2, 2), (0, 0), num_flits=4)]
        result = instance.run(travels)
        assert result.measures[-1] == 0
        assert all(measure > 0 for measure in result.measures[:-1])


class TestFullPipelineAcrossSizes:
    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_hermes_verifies_at_every_size(self, size):
        instance = build_hermes_instance(size, size)
        workloads = [[instance.make_travel((0, 0), (size - 1, size - 1),
                                           num_flits=3),
                      instance.make_travel((size - 1, 0), (0, size - 1),
                                           num_flits=2)]]
        report = verify_instance(instance, workloads)
        assert report.verified, report.summary()

    def test_checks_scale_with_mesh_size(self):
        small = verify_instance(build_hermes_instance(2, 2),
                                run_workloads=False)
        large = verify_instance(build_hermes_instance(4, 4),
                                run_workloads=False)
        assert large.obligations["C-1"].checks > small.obligations["C-1"].checks
        assert large.obligations["C-3"].checks > small.obligations["C-3"].checks
