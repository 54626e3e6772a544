"""The CDCL engine and the incremental-vs-from-scratch ablation.

Three measurements around the solver that now backs the deadlock
machinery:

* raw CDCL performance on the acyclicity encodings of the Fig. 3
  dependency graphs (the workload `is_acyclic_by_sat` runs);
* *incremental* deadlock queries -- one
  :class:`~repro.core.deadlock.DeadlockQuerySession` answering a sweep of
  subset/escape queries -- against rebuilding the CNF per query;
* the portfolio batch driver on the standard scenario sweep.
"""

import pytest

from benchmarks.conftest import report
from repro.checking.encodings import encode_acyclicity, is_acyclic_by_sat
from repro.checking.sat import SatSolver, solve_cnf
from repro.core.deadlock import DeadlockQuerySession
from repro.core.portfolio import run_portfolio, standard_portfolio
from repro.hermes import build_exy_graph, build_hermes_instance
from repro.network.mesh import Mesh2D
from repro.reporting.tables import format_table
from repro.ringnoc import build_clockwise_ring_instance


@pytest.mark.parametrize("size", [2, 3])
def test_bench_cdcl_acyclicity(benchmark, size):
    """One-shot CDCL solve of the Fig. 3 acyclicity encoding."""
    graph = build_exy_graph(Mesh2D(size, size))
    acyclic = benchmark(is_acyclic_by_sat, graph)
    assert acyclic


def test_bench_incremental_vs_rebuild(benchmark):
    """A sweep of subset queries: one live session vs. a CNF per query."""
    graph = build_exy_graph(Mesh2D(2, 2))
    edges = [tuple(edge) for edge in graph.edges()]

    def incremental_sweep():
        session = DeadlockQuerySession(graph)
        verdicts = [session.is_deadlock_free()]
        for step in (2, 3, 4):
            verdicts.append(session.is_deadlock_free_edges(edges[::step]))
        for edge in edges[:8]:
            verdicts.append(session.is_deadlock_free_edges(
                kept for kept in edges if kept != edge))
        return verdicts

    verdicts = benchmark(incremental_sweep)
    assert all(verdicts)

    import time

    from repro.checking.graphs import DirectedGraph

    start = time.perf_counter()
    subsets = [edges] + [edges[::step] for step in (2, 3, 4)] \
        + [[e for e in edges if e != edge] for edge in edges[:8]]
    for subset in subsets:
        subgraph = DirectedGraph()
        for vertex in graph.vertices:
            subgraph.add_vertex(vertex)
        for source, target in subset:
            subgraph.add_edge(source, target)
        assert is_acyclic_by_sat(subgraph)
    rebuild_elapsed = time.perf_counter() - start
    report("Incremental vs. rebuild (13 subset queries, Fig. 3 graph)",
           f"rebuild-per-query reference: {rebuild_elapsed * 1000:.1f} ms "
           f"for {len(subsets)} queries")


def test_bench_deadlock_session_escape_analysis(benchmark):
    """Escape analysis on the clockwise ring: encode once, query per edge."""
    instance = build_clockwise_ring_instance(8)

    def analyse():
        session = DeadlockQuerySession.for_routing(instance.routing)
        free = session.is_deadlock_free()
        escapes = session.escape_edges_for(session.edges)
        return free, escapes, session.queries

    free, escapes, queries = benchmark(analyse)
    assert not free
    assert escapes
    report("Escape analysis, clockwise ring of 8",
           f"{len(escapes)} single-edge fixes found with {queries} "
           f"incremental solves")


def test_bench_portfolio_driver(benchmark):
    """The standard portfolio sweep, decided by graph search."""

    def sweep():
        return run_portfolio(
            standard_portfolio(mesh_sizes=(3,), ring_sizes=(4,)))

    result = benchmark.pedantic(sweep, rounds=2, iterations=1)
    report("Portfolio sweep (3x3 mesh x 9 scenarios + ring pair)",
           result.formatted() + "\n" + result.summary())
    assert result.deadlock_free_count == 8
    assert len(result.verdicts) == 11


def test_bench_solver_reuse_on_repeated_queries(benchmark):
    """Re-querying one SatSolver vs. fresh solves of the same CNF."""
    graph = build_exy_graph(Mesh2D(2, 2))
    cnf, _ = encode_acyclicity(graph)
    solver = SatSolver(cnf)
    solver.solve()  # warm up: learn clauses once

    def requery():
        return solver.solve().satisfiable

    assert benchmark(requery)
