"""Tests for the SAT encodings, transition systems and the NoC state-space
explorer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.checking.bmc import (
    ConfigurationSpace,
    count_reachable_states,
    explore_configuration_space,
)
from repro.checking.encodings import encode_acyclicity, is_acyclic_by_sat
from repro.checking.graphs import DirectedGraph, find_cycle_dfs
from repro.checking.sat import solve_cnf
from repro.checking.ts import TransitionSystem
from repro.hermes.instantiation import build_hermes_instance
from repro.ringnoc.instantiation import build_clockwise_ring_instance


def graph_from_edges(edges, vertices=None):
    return DirectedGraph.from_edges(edges, vertices=vertices)


@st.composite
def random_digraph(draw):
    n = draw(st.integers(1, 6))
    possible = [(a, b) for a in range(n) for b in range(n)]
    edges = draw(st.lists(st.sampled_from(possible), max_size=12))
    return DirectedGraph.from_edges(edges, vertices=range(n))


class TestAcyclicityEncoding:
    def test_dag_is_sat(self):
        graph = graph_from_edges([(1, 2), (2, 3)])
        assert is_acyclic_by_sat(graph)

    def test_cycle_is_unsat(self):
        graph = graph_from_edges([(1, 2), (2, 3), (3, 1)])
        assert not is_acyclic_by_sat(graph)

    def test_self_loop_is_unsat(self):
        assert not is_acyclic_by_sat(graph_from_edges([(1, 1)]))

    @given(random_digraph())
    @settings(max_examples=60, deadline=None)
    def test_sat_agrees_with_dfs(self, graph):
        assert is_acyclic_by_sat(graph) == find_cycle_dfs(graph).acyclic

    def test_encoding_size_is_reasonable(self):
        graph = graph_from_edges([(i, i + 1) for i in range(20)])
        cnf, _ = encode_acyclicity(graph)
        assert cnf.num_clauses < 5000


class TestTransitionSystem:
    def _counter_system(self, limit=5):
        return TransitionSystem(
            initial_states=[0],
            successors=lambda s: [s + 1] if s < limit else [])

    def test_search_finds_target(self):
        system = self._counter_system()
        result = system.search(lambda s: s == 3)
        assert result.found
        assert result.witness == 3
        assert result.path == [0, 1, 2, 3]
        assert result.depth == 3

    def test_search_miss(self):
        system = self._counter_system()
        result = system.search(lambda s: s == 99)
        assert not result.found
        assert result.explored == 6
        assert result.complete

    def test_max_states_bound(self):
        system = TransitionSystem([0], lambda s: [s + 1])
        result = system.search(lambda s: False, max_states=10)
        assert not result.complete

    def test_max_depth_bound(self):
        system = self._counter_system(limit=100)
        result = system.search(lambda s: s == 50, max_depth=3)
        assert not result.found
        assert not result.complete

    def test_reachable_states(self):
        states, complete = self._counter_system().reachable_states()
        assert states == {0, 1, 2, 3, 4, 5}
        assert complete

    def test_invariant_check(self):
        system = self._counter_system()
        violation = system.check_invariant(lambda s: s < 4)
        assert violation.found
        assert violation.witness == 4

    def test_terminal_state_search(self):
        system = self._counter_system()
        result = system.find_terminal_state(is_final=lambda s: s == 5)
        assert not result.found  # the only terminal state is the final one
        result2 = system.find_terminal_state(is_final=lambda s: False)
        assert result2.found
        assert result2.witness == 5


class TestConfigurationSpace:
    def test_encode_decode_roundtrip(self):
        instance = build_hermes_instance(2, 2, buffer_capacity=1)
        travels = [instance.make_travel((0, 0), (1, 1), num_flits=2)]
        space = ConfigurationSpace(instance, travels, capacity=1)
        state = space.encode(space.initial_configuration)
        decoded = space.decode(state)
        assert space.encode(decoded) == state
        decoded.check_consistency()

    def test_successors_of_initial_state(self):
        instance = build_hermes_instance(2, 2, buffer_capacity=1)
        travels = [instance.make_travel((0, 0), (1, 1), num_flits=1),
                   instance.make_travel((1, 1), (0, 0), num_flits=1)]
        space = ConfigurationSpace(instance, travels, capacity=1)
        initial = space.encode(space.initial_configuration)
        successors = space.successors(initial)
        assert len(successors) == 2  # either message may inject first

    def test_final_state_detection(self):
        instance = build_hermes_instance(2, 2, buffer_capacity=1)
        travels = [instance.make_travel((0, 0), (1, 0), num_flits=1)]
        space = ConfigurationSpace(instance, travels, capacity=1)
        state = space.encode(space.initial_configuration)
        assert not space.is_final(state)
        # Drive the single message to completion.
        while True:
            successors = space.successors(state)
            if not successors:
                break
            state = successors[0]
        assert space.is_final(state)

    def test_requires_single_steppable_switching(self):
        instance = build_hermes_instance(2, 2)

        class NotSteppable:
            pass

        instance.switching = NotSteppable()
        with pytest.raises(TypeError):
            ConfigurationSpace(instance, [], capacity=1)

    def test_xy_small_workload_has_no_reachable_deadlock(self):
        instance = build_hermes_instance(2, 2, buffer_capacity=1)
        travels = [instance.make_travel((0, 0), (1, 1), num_flits=2),
                   instance.make_travel((1, 1), (0, 0), num_flits=2),
                   instance.make_travel((0, 1), (1, 0), num_flits=2)]
        result = explore_configuration_space(instance, travels, capacity=1)
        assert result.complete
        assert not result.deadlock_found

    def test_clockwise_ring_reaches_deadlock(self):
        instance = build_clockwise_ring_instance(4)
        travels = [instance.make_travel((i, 0), ((i + 2) % 4, 0), num_flits=3)
                   for i in range(4)]
        result = explore_configuration_space(instance, travels, capacity=1)
        assert result.deadlock_found
        assert result.witness_configuration is not None
        # The witness state really is a deadlock for the policy.
        from repro.core.deadlock import is_deadlock

        assert is_deadlock(result.witness_configuration, instance.switching)

    def test_count_reachable_states(self):
        instance = build_hermes_instance(2, 2, buffer_capacity=1)
        travels = [instance.make_travel((0, 0), (1, 1), num_flits=1)]
        count, complete = count_reachable_states(instance, travels, capacity=1)
        assert complete
        # One message, 6 route positions + not-injected = a handful of states.
        assert 5 <= count <= 10

    def test_search_result_str(self):
        instance = build_hermes_instance(2, 2, buffer_capacity=1)
        travels = [instance.make_travel((0, 0), (1, 1), num_flits=1)]
        result = explore_configuration_space(instance, travels, capacity=1)
        assert "no reachable deadlock" in str(result)
