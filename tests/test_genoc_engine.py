"""Tests for the GeNoC interpreter and the termination measures."""

import pytest

from repro.core.constituents import IdentityInjection
from repro.core.errors import GeNoCError
from repro.core.genoc import GeNoCEngine
from repro.core.measure import (
    flit_hop_measure,
    is_non_increasing,
    is_strictly_decreasing,
    pending_travel_measure,
    route_length_measure,
)
from repro.hermes.instantiation import build_hermes_instance
from repro.routing.xy import XYRouting
from repro.switching.wormhole import WormholeSwitching


@pytest.fixture
def instance():
    return build_hermes_instance(3, 3, buffer_capacity=2)


class TestEngineRuns:
    def test_empty_workload_terminates_immediately(self, instance):
        result = instance.run([])
        assert result.evacuated
        assert result.steps == 0
        assert result.final.arrived == []

    def test_single_message(self, instance):
        travel = instance.make_travel((0, 0), (2, 2), num_flits=3)
        result = instance.run([travel])
        assert result.evacuated
        assert not result.deadlocked
        assert result.arrived_ids == [travel.travel_id]
        assert result.final.state.is_empty()

    def test_history_is_recorded(self, instance):
        travel = instance.make_travel((0, 0), (2, 2), num_flits=3)
        result = instance.run([travel])
        assert len(result.history) == result.steps
        assert result.history[-1].pending == 0
        assert result.history[-1].arrived == 1
        assert all(record.step == index + 1
                   for index, record in enumerate(result.history))

    def test_measures_are_recorded_per_step(self, instance):
        travel = instance.make_travel((0, 0), (2, 2), num_flits=3)
        result = instance.run([travel])
        assert len(result.measures) == result.steps + 1
        assert is_strictly_decreasing(result.measures)
        assert result.measures[-1] == 0

    def test_on_step_callback(self, instance):
        travel = instance.make_travel((0, 0), (1, 1), num_flits=2)
        seen = []
        config = instance.initial_configuration([travel])
        instance.engine().run(config, on_step=lambda s, c: seen.append(s))
        assert seen == list(range(1, len(seen) + 1))
        assert seen  # at least one step happened

    def test_check_invariants_mode(self, instance):
        travels = [instance.make_travel((0, 0), (2, 2), num_flits=3),
                   instance.make_travel((2, 0), (0, 2), num_flits=3)]
        result = instance.run(travels, check_invariants=True)
        assert result.evacuated

    def test_max_steps_bound_raises(self, instance):
        travel = instance.make_travel((0, 0), (2, 2), num_flits=3)
        with pytest.raises(GeNoCError):
            instance.run([travel], max_steps=2)

    def test_run_to_completion_returns_final_configuration(self, instance):
        travel = instance.make_travel((0, 0), (1, 0), num_flits=1)
        config = instance.initial_configuration([travel])
        final = instance.engine().run_to_completion(config)
        assert final.is_finished()
        assert len(final.arrived) == 1

    def test_describe(self, instance):
        description = instance.engine().describe()
        assert description["injection"] == "Iid"
        assert description["routing"] == "Rxy"
        assert description["switching"] == "Swh"

    def test_elapsed_time_recorded(self, instance):
        travel = instance.make_travel((0, 0), (2, 2), num_flits=3)
        result = instance.run([travel])
        assert result.elapsed_seconds > 0

    def test_result_str(self, instance):
        travel = instance.make_travel((0, 0), (2, 2), num_flits=3)
        result = instance.run([travel])
        assert "evacuated" in str(result)


class TestEngineComposition:
    def test_engine_can_be_built_from_parts(self):
        from repro.network.mesh import Mesh2D

        mesh = Mesh2D(2, 2)
        engine = GeNoCEngine(injection=IdentityInjection(),
                             routing=XYRouting(mesh),
                             switching=WormholeSwitching())
        instance = build_hermes_instance(2, 2)
        travel = instance.make_travel((0, 0), (1, 1), num_flits=2)
        config = instance.initial_configuration([travel])
        result = engine.run(config)
        assert result.evacuated

    def test_custom_measure_is_used(self, instance):
        travel = instance.make_travel((0, 0), (2, 2), num_flits=2)
        config = instance.initial_configuration([travel])
        engine = GeNoCEngine(injection=instance.injection,
                             routing=instance.routing,
                             switching=instance.switching,
                             measure=route_length_measure)
        result = engine.run(config)
        assert result.evacuated
        assert is_non_increasing(result.measures)


class TestMeasures:
    def test_flit_hop_measure_of_unstarted_configuration(self, instance):
        travels = [instance.make_travel((0, 0), (1, 0), num_flits=2)]
        config = instance.routing.route_configuration(
            instance.initial_configuration(travels))
        # Route has 4 ports; each of the 2 flits needs 4 moves + 1 injection.
        assert flit_hop_measure(config) == 2 * 5

    def test_route_length_measure_matches_paper_definition(self, instance):
        travels = [instance.make_travel((0, 0), (1, 0), num_flits=2),
                   instance.make_travel((0, 0), (2, 2), num_flits=1)]
        config = instance.routing.route_configuration(
            instance.initial_configuration(travels))
        expected = sum(t.route_length for t in config.travels)
        assert route_length_measure(config) == expected

    def test_pending_travel_measure_is_not_a_valid_c5_measure(self, instance):
        # It stays constant while messages advance without arriving, which is
        # exactly why it fails obligation (C-5) (see test_obligations).
        travels = [instance.make_travel((0, 0), (2, 2), num_flits=2)]
        config = instance.routing.route_configuration(
            instance.initial_configuration(travels))
        before = pending_travel_measure(config)
        after = pending_travel_measure(instance.switching.step(config))
        assert before == after == 1

    def test_monotonicity_helpers(self):
        assert is_strictly_decreasing([5, 4, 2, 0])
        assert not is_strictly_decreasing([5, 5, 4])
        assert is_non_increasing([5, 5, 4])
        assert not is_non_increasing([4, 5])
        assert is_strictly_decreasing([])
        assert is_strictly_decreasing([7])
