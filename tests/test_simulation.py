"""Tests for workload generators, metrics, traces and the simulator."""

import pytest

from repro.hermes.instantiation import build_hermes_instance
from repro.ringnoc.instantiation import build_chain_ring_instance
from repro.simulation.metrics import compute_metrics
from repro.simulation.simulator import Simulator
from repro.simulation.workloads import (
    all_to_all,
    bit_complement_traffic,
    hotspot_traffic,
    neighbour_traffic,
    permutation_traffic,
    single_message,
    standard_suite,
    transpose_traffic,
    uniform_random_traffic,
)


@pytest.fixture(scope="module")
def instance():
    return build_hermes_instance(3, 3, buffer_capacity=2)


class TestWorkloadGenerators:
    def test_single_message(self, instance):
        spec = single_message(instance, (0, 0), (2, 2), num_flits=3)
        assert len(spec) == 1
        assert spec.travels[0].num_flits == 3
        assert "single" in spec.describe()

    def test_uniform_random_is_deterministic_per_seed(self, instance):
        a = uniform_random_traffic(instance, 10, seed=5)
        b = uniform_random_traffic(instance, 10, seed=5)
        assert [(t.source, t.destination) for t in a.travels] == \
            [(t.source, t.destination) for t in b.travels]
        c = uniform_random_traffic(instance, 10, seed=6)
        assert [(t.source, t.destination) for t in a.travels] != \
            [(t.source, t.destination) for t in c.travels]

    def test_uniform_random_never_sends_to_self(self, instance):
        spec = uniform_random_traffic(instance, 50, seed=1)
        assert all(t.source.node != t.destination.node for t in spec.travels)

    def test_transpose(self, instance):
        spec = transpose_traffic(instance)
        for travel in spec.travels:
            x, y = travel.source.node
            assert travel.destination.node == (y, x)
        # Diagonal nodes do not send.
        assert len(spec) == 9 - 3

    def test_bit_complement(self, instance):
        spec = bit_complement_traffic(instance)
        for travel in spec.travels:
            x, y = travel.source.node
            assert travel.destination.node == (2 - x, 2 - y)
        assert len(spec) == 8  # the centre node maps to itself

    def test_hotspot(self, instance):
        spec = hotspot_traffic(instance, (1, 1))
        assert len(spec) == 8
        assert all(t.destination.node == (1, 1) for t in spec.travels)

    def test_neighbour(self, instance):
        spec = neighbour_traffic(instance)
        assert len(spec) == 9
        for travel in spec.travels:
            x, y = travel.source.node
            assert travel.destination.node == ((x + 1) % 3, y)

    def test_permutation_is_a_permutation(self, instance):
        spec = permutation_traffic(instance, seed=3)
        sources = [t.source.node for t in spec.travels]
        targets = [t.destination.node for t in spec.travels]
        assert len(set(sources)) == len(sources)
        assert len(set(targets)) == len(targets)
        assert all(s != t for s, t in zip(sources, targets))

    def test_all_to_all_count(self, instance):
        spec = all_to_all(instance)
        assert len(spec) == 9 * 8

    def test_standard_suite_nonempty(self, instance):
        suite = standard_suite(instance)
        assert len(suite) >= 4
        assert all(len(spec) > 0 for spec in suite)

    def test_travel_ids_unique_within_workload(self, instance):
        spec = uniform_random_traffic(instance, 30, seed=0)
        ids = [t.travel_id for t in spec.travels]
        assert len(set(ids)) == len(ids)


class TestSimulator:
    def test_run_single_workload(self, instance):
        simulator = Simulator(instance)
        result = simulator.run(transpose_traffic(instance, num_flits=3))
        assert result.genoc_result.evacuated
        assert result.correctness_ok
        assert result.evacuation_ok
        assert result.metrics.messages == 6
        assert result.metrics.steps > 0

    def test_metrics_contents(self, instance):
        simulator = Simulator(instance)
        result = simulator.run(single_message(instance, (0, 0), (2, 2),
                                              num_flits=4))
        metrics = result.metrics
        assert metrics.flits == 4
        assert metrics.evacuated and not metrics.deadlocked
        assert metrics.total_route_length == 10
        assert metrics.average_route_length == 10
        assert metrics.peak_flits_in_network >= 1
        assert 0 < metrics.throughput <= 1
        assert metrics.elapsed_seconds > 0
        assert metrics.as_dict()["messages"] == 1

    def test_trace_recording(self, instance):
        simulator = Simulator(instance, record_trace=True)
        result = simulator.run(single_message(instance, (0, 0), (2, 0),
                                              num_flits=2))
        trace = result.trace
        assert trace is not None
        assert len(trace) == result.metrics.steps
        trajectory = trace.header_trajectory(
            result.workload.travels[0].travel_id)
        # The header position is monotone until ejection drops it from view.
        in_flight = [p for p in trajectory if p >= 0]
        assert in_flight == sorted(in_flight)
        assert trace.max_occupancy() >= 1
        assert trace.final_step().pending in (0, 1)

    def test_verification_can_be_disabled(self, instance):
        simulator = Simulator(instance, verify=False)
        result = simulator.run(single_message(instance, (0, 0), (1, 1)))
        assert result.correctness_ok is None
        assert result.evacuation_ok is None

    def test_run_suite_and_sweep(self, instance):
        simulator = Simulator(instance)
        suite = [transpose_traffic(instance, num_flits=2),
                 neighbour_traffic(instance, num_flits=2)]
        results = simulator.run_suite(suite)
        assert len(results) == 2
        table = simulator.sweep(suite)
        assert set(table) == {"transpose", "neighbour"}
        assert all(row["evacuated"] for row in table.values())

    def test_capacity_override(self, instance):
        simulator = Simulator(instance, capacity=1)
        result = simulator.run(bit_complement_traffic(instance, num_flits=3))
        assert result.genoc_result.evacuated

    def test_simulator_on_ring_instance(self):
        ring = build_chain_ring_instance(5)
        simulator = Simulator(ring)
        result = simulator.run(uniform_random_traffic(ring, 8, num_flits=2,
                                                      seed=4))
        assert result.genoc_result.evacuated
        assert result.correctness_ok

    def test_summary_text(self, instance):
        simulator = Simulator(instance)
        result = simulator.run(single_message(instance, (0, 0), (1, 1)))
        assert "evacuated" in result.summary()

    def test_compute_metrics_direct(self, instance):
        travels = [instance.make_travel((0, 0), (2, 2), num_flits=2)]
        original = instance.initial_configuration(travels)
        genoc_result = instance.engine().run(original.copy())
        metrics = compute_metrics(original, genoc_result)
        assert metrics.messages == 1
        assert metrics.steps == genoc_result.steps



@pytest.mark.parametrize("messages, steps, peak_flits, route_length", [
    (600, 117, 722, 7454),
    (1200, 182, 730, 15004),
    (2400, 341, 764, 30176),
])
def test_evacuate_counts_are_pinned(messages, steps, peak_flits,
                                    route_length):
    """``repro simulate --width 8 --height 8 --flits 4 --seed 11``."""
    mesh = build_hermes_instance(8, 8, buffer_capacity=2)
    result = Simulator(mesh).run(uniform_random_traffic(
        mesh, num_messages=messages, num_flits=4, seed=11))
    metrics = result.metrics
    assert (metrics.steps, metrics.peak_flits_in_network,
            metrics.total_route_length, metrics.flits) == \
        (steps, peak_flits, route_length, 4 * messages)
    assert result.correctness_ok and result.evacuation_ok

class TestWorkloadsOnNonMeshTopologies:
    def test_mesh_specific_generators_reject_rings(self):
        ring = build_chain_ring_instance(4)
        with pytest.raises(TypeError):
            bit_complement_traffic(ring)
        with pytest.raises(TypeError):
            neighbour_traffic(ring)

    def test_uniform_random_works_on_rings(self):
        ring = build_chain_ring_instance(4)
        spec = uniform_random_traffic(ring, 6, seed=0)
        assert len(spec) == 6
