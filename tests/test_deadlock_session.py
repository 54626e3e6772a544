"""The Kahn-peeling deadlock query session against the graph search.

:class:`~repro.core.deadlock.DeadlockQuerySession` decides every query by
peeling in-degree-0 vertices (:func:`repro.checking.graphs.kahn_peel`),
and the batch verdicts come from the DFS of
:func:`repro.checking.graphs.cycle_and_escape_edges`.  The two share no
search code, so they must agree on every verdict and escape set: for
every registered kind and routing token of ``tests/test_route_table.py``
and for every scenario of the sweeps pinned in
``tests/data/cycle_cores.json``, on the same query edges (the escape
class of a VC relation).
"""

import io
import json

import pytest

from repro.checking.graphs import (
    DirectedGraph,
    ReprRanks,
    check_certificate,
    cycle_and_escape_edges,
)
from repro.cli import build_parser
from repro.core.deadlock import DeadlockQuerySession
from repro.core.dependency import dependency_id_graph
from repro.core.portfolio import (
    scenarios_from_specs,
    standard_portfolio,
    vc_escape_portfolio,
)
from repro.core.spec import expand_matrix
from repro.core.trace import TraceWriter, load_trace, validate_trace
from repro.network.vc import vc_of
from repro.routing.escape import EscapeChannelRouting
from tests.test_cycle_cores import FIXTURE, _cases
from tests.test_route_table import _terms


def session_over(edges, vertices=None):
    graph = DirectedGraph.from_edges(edges, vertices=vertices)
    return DeadlockQuerySession(graph, name="unit")


def assert_closed_cycle(core, edges):
    """``core`` is a cycle, edge after edge, over ``edges`` only."""
    assert core
    assert set(core) <= set(edges)
    for (_, target), (source, _) in zip(core, core[1:] + core[:1]):
        assert target == source
    assert len({source for source, _ in core}) == len(core)


class TestKahnSession:
    def test_acyclic_query_is_free_and_has_no_core(self):
        session = session_over([(0, 1), (1, 2), (0, 2)])
        assert session.is_deadlock_free()
        assert session.cycle_core_for(session.edges) is None
        assert session.escape_edges_for(session.edges) == []

    def test_self_loop_is_its_own_cycle_and_escape(self):
        session = session_over([(0, 1), (1, 1)])
        assert not session.is_deadlock_free()
        assert session.cycle_core_for(session.edges) == [(1, 1)]
        assert session.escape_edges_for(session.edges) == [(1, 1)]

    def test_edge_outside_the_vertex_set_is_a_value_error(self):
        session = session_over([(0, 1)], vertices=[0, 1, 2])
        session.add_edge(1, 2)
        with pytest.raises(ValueError, match="vertex set"):
            session.add_edge(2, 3)
        assert session.edges == [(0, 1), (1, 2)]

    def test_query_edge_outside_the_universe_is_a_key_error(self):
        session = session_over([(0, 1)], vertices=[0, 1, 2])
        with pytest.raises(KeyError, match="universe"):
            session.is_deadlock_free_edges([(0, 1), (1, 2)])
        with pytest.raises(KeyError, match="universe"):
            session.cycle_core_for([(1, 0)])

    def test_two_disjoint_cycles_have_no_escape_edge(self):
        edges = [(0, 1), (1, 0), (2, 3), (3, 2)]
        session = session_over(edges)
        assert not session.is_deadlock_free()
        assert_closed_cycle(session.cycle_core_for(edges), edges)
        assert session.escape_edges_for(edges) == []

    def test_two_cycles_sharing_one_edge_escape_through_it(self):
        edges = [(0, 1), (1, 2), (2, 0), (1, 3), (3, 0)]
        session = session_over(edges)
        assert session.escape_edges_for(edges) == [(0, 1)]

    def test_cycle_core_closes_within_the_queried_subset(self):
        """The universe holds a 2-cycle the query leaves out; the core
        is the queried 3-cycle, not that one, and a vertex the peel
        leaves only downstream of the cycle is not on it."""
        universe = [(0, 1), (1, 0), (1, 2), (2, 0), (2, 3), (3, 4)]
        session = session_over(universe)
        query = [(3, 4), (2, 3), (0, 1), (1, 2), (2, 0)]
        core = session.cycle_core_for(query)
        assert_closed_cycle(core, query)
        assert set(core) == {(0, 1), (1, 2), (2, 0)}
        assert sorted(session.escape_edges_for(query)) == sorted(core)

    def test_stats_count_one_solve_per_peel(self):
        edges = [(0, 1), (1, 2), (2, 0)]
        session = session_over(edges)
        assert session.solver_stats == {"solves": 0}
        assert session.is_deadlock_free_edges(edges[:2])
        # A cycle (one peel), then one peel per cycle edge.
        assert len(session.escape_edges_for(edges)) == 3
        assert session.solver_stats == {"solves": 5}
        assert session.queries == 5

    def test_every_peel_emits_one_oracle_query(self):
        sink = io.StringIO()
        trace = TraceWriter(sink, clock=iter(range(100)).__next__)
        graph = DirectedGraph.from_edges([(0, 1), (1, 0)])
        session = DeadlockQuerySession(graph, trace=trace)
        session.is_deadlock_free_edges([(0, 1)])
        session.is_deadlock_free()
        trace.close()
        events = load_trace(sink.getvalue().splitlines())
        assert validate_trace(events) == []
        assert [(event["query"], event["edges"], event["free"])
                for event in events if event["ev"] == "oracle_query"] \
            == [(1, 1, True), (2, 2, False)]


def _decide_both_ways(routing):
    """Compare the session and the graph search on a routing's query."""
    graph = dependency_id_graph(routing)
    query = graph
    if isinstance(routing, EscapeChannelRouting):
        query = graph.restrict([vc_of(port) in routing.escape_vcs
                                for port in graph.vertices])
    core, escape, certificate = cycle_and_escape_edges(
        query, ReprRanks().ranks(graph.vertices))
    assert check_certificate(query.successors, certificate) is None
    query_edges = query.edges()
    session = DeadlockQuerySession(graph.to_graph())
    free = session.is_deadlock_free_edges(query_edges)
    assert free == (not core)
    assert set(session.escape_edges_for(query_edges)) == set(escape)
    if not free:
        assert_closed_cycle(session.cycle_core_for(query_edges), query_edges)
    return free


@pytest.mark.parametrize("term", list(_terms()))
def test_session_agrees_with_the_graph_search_on_every_token(term):
    (spec,) = expand_matrix(term)
    _decide_both_ways(spec.build().routing)


def _case_scenarios(argv):
    """The scenarios ``repro batch argv`` runs."""
    args = build_parser().parse_args(["batch", *argv])
    if args.matrix:
        return scenarios_from_specs(expand_matrix(args.matrix))
    return (standard_portfolio(mesh_sizes=args.mesh_sizes,
                               ring_sizes=args.ring_sizes)
            + vc_escape_portfolio(mesh_sizes=args.vc_mesh_sizes,
                                  torus_sizes=args.torus_sizes or (),
                                  vc_counts=args.vcs))


@pytest.mark.parametrize("case", sorted(_cases()))
def test_session_agrees_with_the_graph_search_on_pinned_sweeps(case):
    """Every scenario of the sweep, free or prone; the prone ones are the
    scenarios the fixture pins cycles for."""
    prone = [scenario.name for scenario in _case_scenarios(_cases()[case])
             if not _decide_both_ways(scenario.resolve().routing)]
    assert sorted(prone) == sorted(json.loads(FIXTURE.read_text())[case])
