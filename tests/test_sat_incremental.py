"""Property tests for the incremental CDCL engine.

Covers the solver behaviours the old one-shot DPLL-style interface did not
have: repeated solves on one instance, clause addition between solves,
assumption handling with UNSAT cores, determinism under a fixed seed, and
the deadlock query session built on top (against the DFS on random
graphs).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.checking.cnf import CNF
from repro.checking.graphs import DirectedGraph
from repro.checking.sat import (
    IncrementalSatSolver,
    SatSolver,
    brute_force_models,
    brute_force_satisfiable,
    count_models_brute_force,
    solve_cnf,
)
from repro.core.deadlock import DeadlockQuerySession


@st.composite
def random_cnf(draw, max_vars=7, max_clauses=22):
    num_vars = draw(st.integers(1, max_vars))
    num_clauses = draw(st.integers(1, max_clauses))
    cnf = CNF()
    for _ in range(num_clauses):
        width = draw(st.integers(1, 4))
        clause = [draw(st.sampled_from([1, -1])) * draw(
            st.integers(1, num_vars)) for _ in range(width)]
        cnf.add_clause(clause)
    return cnf


@st.composite
def cnf_with_assumption_sets(draw):
    cnf = draw(random_cnf())
    num_vars = max(cnf.variables(), default=1)
    sets = []
    for _ in range(draw(st.integers(1, 4))):
        count = draw(st.integers(0, num_vars))
        variables = draw(st.permutations(range(1, num_vars + 1)))[:count]
        signs = [draw(st.sampled_from([1, -1])) for _ in variables]
        sets.append([sign * var for sign, var in zip(signs, variables)])
    return cnf, sets


class TestCdclAgainstModelEnumeration:
    @given(random_cnf())
    @settings(max_examples=120, deadline=None)
    def test_verdict_matches_brute_force(self, cnf):
        assert solve_cnf(cnf).satisfiable == brute_force_satisfiable(cnf)

    @given(random_cnf())
    @settings(max_examples=80, deadline=None)
    def test_models_are_real_models(self, cnf):
        result = solve_cnf(cnf)
        if result.satisfiable:
            assert cnf.evaluate(result.model)

    @given(random_cnf(max_vars=5, max_clauses=12))
    @settings(max_examples=60, deadline=None)
    def test_blocking_clauses_enumerate_every_model(self, cnf):
        """Repeatedly adding the blocking clause of the found model must
        enumerate exactly the brute-force model set -- this exercises
        add_clause between solves on a single solver instance."""
        expected = count_models_brute_force(cnf)
        variables = sorted(cnf.variables())
        solver = SatSolver(cnf.copy())
        found = 0
        while True:
            result = solver.solve()
            if not result.satisfiable:
                break
            found += 1
            assert found <= expected, "solver found a spurious model"
            blocking = [-var if result.model[var] else var
                        for var in variables]
            solver.add_clause(blocking)
        assert found == expected


class TestAssumptionsAndCores:
    @given(cnf_with_assumption_sets())
    @settings(max_examples=100, deadline=None)
    def test_assumption_queries_match_unit_clauses(self, data):
        """solve(assumptions) on ONE solver must agree, query after query,
        with solving a fresh copy that has the assumptions as units."""
        cnf, assumption_sets = data
        solver = SatSolver(cnf)
        for assumptions in assumption_sets:
            reference = cnf.copy()
            for literal in assumptions:
                reference.add_unit(literal)
            expected = brute_force_satisfiable(reference)
            assert solver.solve(assumptions).satisfiable == expected

    @given(cnf_with_assumption_sets())
    @settings(max_examples=100, deadline=None)
    def test_unsat_cores_are_unsat_subsets(self, data):
        cnf, assumption_sets = data
        solver = SatSolver(cnf)
        for assumptions in assumption_sets:
            result = solver.solve(assumptions)
            if result.satisfiable or result.core is None:
                continue
            assert set(result.core) <= set(assumptions)
            strengthened = cnf.copy()
            for literal in result.core:
                strengthened.add_unit(literal)
            assert not brute_force_satisfiable(strengthened)

    def test_core_of_contradictory_assumptions(self):
        solver = IncrementalSatSolver()
        x = solver.new_var()
        result = solver.solve([x, -x])
        assert not result.satisfiable
        assert set(result.core) == {x, -x}

    def test_solver_recovers_after_unsat_assumptions(self):
        solver = IncrementalSatSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        assert not solver.solve([-a, -b]).satisfiable
        assert solver.solve([]).satisfiable
        assert solver.solve([-a]).satisfiable
        result = solver.solve([-a])
        assert result.model[b] is True

    def test_formula_level_unsat_has_no_core(self):
        solver = IncrementalSatSolver()
        x = solver.new_var()
        solver.add_clause([x])
        solver.add_clause([-x])
        result = solver.solve([x])
        assert not result.satisfiable
        assert result.core is None


class TestDeterminism:
    @given(random_cnf())
    @settings(max_examples=50, deadline=None)
    def test_same_formula_same_run(self, cnf):
        first = SatSolver(cnf.copy()).solve()
        second = SatSolver(cnf.copy()).solve()
        assert first.satisfiable == second.satisfiable
        assert first.model == second.model
        assert first.stats == second.stats


@st.composite
def random_digraph(draw, max_vertices=6):
    count = draw(st.integers(2, max_vertices))
    graph = DirectedGraph()
    for vertex in range(count):
        graph.add_vertex(vertex)
    possible = [(a, b) for a in range(count) for b in range(count) if a != b]
    edges = draw(st.lists(st.sampled_from(possible), max_size=12,
                          unique=True))
    for source, target in edges:
        graph.add_edge(source, target)
    return graph


def subgraph_is_acyclic(graph, edges):
    from repro.checking.graphs import find_cycle_dfs

    return find_cycle_dfs(DirectedGraph.from_edges(
        edges, vertices=graph.vertices)).acyclic


class TestDeadlockQuerySessionOnRandomGraphs:
    @given(random_digraph())
    @settings(max_examples=80, deadline=None)
    def test_full_query_matches_dfs(self, graph):
        session = DeadlockQuerySession(graph)
        assert session.is_deadlock_free() \
            == subgraph_is_acyclic(graph, graph.edges())

    @given(random_digraph())
    @settings(max_examples=50, deadline=None)
    def test_subset_queries_match_subgraph_dfs(self, graph):
        session = DeadlockQuerySession(graph)
        edges = session.edges
        for step in (2, 3):
            subset = edges[::step]
            assert session.is_deadlock_free_edges(subset) \
                == subgraph_is_acyclic(graph, subset)

    @given(random_digraph())
    @settings(max_examples=50, deadline=None)
    def test_cycle_core_is_cyclic(self, graph):
        session = DeadlockQuerySession(graph)
        core = session.cycle_core_for(session.edges)
        if core is None:
            assert subgraph_is_acyclic(graph, graph.edges())
            return
        assert not subgraph_is_acyclic(graph, core)

    @given(random_digraph())
    @settings(max_examples=50, deadline=None)
    def test_escape_edges_match_graph_search(self, graph):
        from repro.checking.graphs import edges_on_every_cycle, find_cycle_dfs

        session = DeadlockQuerySession(graph)
        cycle = find_cycle_dfs(graph).cycle or []
        expected = edges_on_every_cycle(
            graph, list(zip(cycle, cycle[1:] + cycle[:1])))
        assert set(session.escape_edges_for(session.edges)) == set(expected)

    def test_self_loop_is_a_cycle(self):
        graph = DirectedGraph()
        graph.add_vertex("a")
        graph.add_edge("a", "a")
        session = DeadlockQuerySession(graph)
        assert not session.is_deadlock_free()
        assert session.cycle_core_for(session.edges) == [("a", "a")]

    def test_escape_edges_on_two_cycles(self):
        graph = DirectedGraph()
        for vertex in "abc":
            graph.add_vertex(vertex)
        # Two 2-cycles sharing vertex a: no single removal fixes both.
        graph.add_edge("a", "b")
        graph.add_edge("b", "a")
        graph.add_edge("a", "c")
        graph.add_edge("c", "a")
        session = DeadlockQuerySession(graph)
        assert session.escape_edges_for(session.edges) == []
        assert session.is_deadlock_free_edges([("a", "b"), ("a", "c")])
