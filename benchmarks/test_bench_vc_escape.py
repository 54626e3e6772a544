"""Incremental VC-deadlock queries across VC counts, mesh and torus.

The virtual-channel subsystem turns one topology into a family of designs
(1, 2, 4 VCs with an escape class); this benchmark measures the pattern
the portfolio's cross-check relies on: **one session per topology** whose
vertex universe is the largest VC count's channel set, answering the
(V-2) escape-class queries of every VC count with one Kahn peel each
over the growing edge universe.

Also times the relation side (building the channel dependency graph, the
explicit (V-1)/(V-2) check) and the VC wormhole simulation.
"""

import pytest

from benchmarks.conftest import report
from repro.checking.graphs import DirectedGraph
from repro.core.deadlock import DeadlockQuerySession
from repro.core.dependency import channel_dependency_graph, class_edges
from repro.core.obligations import check_v1_escape_coverage
from repro.core.portfolio import run_portfolio, vc_escape_portfolio
from repro.core.theorems import check_deadlock_freedom_vc
from repro.network.mesh import Mesh2D
from repro.network.torus import Torus2D
from repro.network.vc import VCTopology
from repro.routing.escape import mesh_escape_routing, torus_escape_routing
from repro.simulation.simulator import Simulator
from repro.simulation.workloads import uniform_random_traffic
from repro.vcnoc.instantiation import build_vc_mesh_instance

VC_COUNTS = (1, 2, 4)

#: The expected verdict pattern: deadlock-prone on one channel, proved
#: free by the escape condition at every higher VC count.
EXPECTED = {1: False, 2: True, 4: True}


def _session_for(base_topology) -> DeadlockQuerySession:
    """One session whose universe hosts every VC count's channels."""
    universe = DirectedGraph()
    for channel in VCTopology(base_topology, max(VC_COUNTS)).ports:
        universe.add_vertex(channel)
    return DeadlockQuerySession(universe, name=str(base_topology))


def _shared_session_sweep(base_topology, relations, graphs):
    """Every VC count's (V-1)/(V-2) verdict, (V-2) on one shared session."""
    session = _session_for(base_topology)
    verdicts = {}
    for vcs, relation in relations.items():
        graph = graphs[vcs]
        for source, target in graph.edges():
            session.add_edge(source, target)
        verdicts[vcs] = (
            check_v1_escape_coverage(relation).holds
            and session.is_deadlock_free_edges(
                class_edges(graph, relation.escape_vcs)))
    return verdicts, session


@pytest.fixture(scope="module")
def mesh_relations():
    mesh = Mesh2D(3, 3)
    return mesh, {vcs: mesh_escape_routing(mesh, num_vcs=vcs)
                  for vcs in VC_COUNTS}


@pytest.fixture(scope="module")
def torus_relations():
    torus = Torus2D(4, 4)
    return torus, {vcs: torus_escape_routing(torus, num_vcs=vcs)
                   for vcs in VC_COUNTS}


def test_bench_vc_queries_mesh_shared_session(benchmark, mesh_relations):
    """1/2/4-VC escape queries on the 3x3 mesh through one session."""
    mesh, relations = mesh_relations
    graphs = {vcs: channel_dependency_graph(relation)
              for vcs, relation in relations.items()}

    verdicts, session = benchmark.pedantic(
        _shared_session_sweep, args=(mesh, relations, graphs), rounds=3,
        iterations=1)
    assert verdicts == EXPECTED
    assert session.solver_stats == {"solves": len(VC_COUNTS)}
    report("VC escape queries, 3x3 mesh, one session for 1/2/4 VCs",
           f"verdicts {verdicts}; {session.queries} peels over "
           f"{session.edge_count} edges")


def test_bench_vc_queries_torus_shared_session(benchmark, torus_relations):
    """1/2/4-VC dateline queries on the 4x4 torus through one session."""
    torus, relations = torus_relations
    graphs = {vcs: channel_dependency_graph(relation)
              for vcs, relation in relations.items()}

    verdicts, session = benchmark.pedantic(
        _shared_session_sweep, args=(torus, relations, graphs), rounds=2,
        iterations=1)
    assert verdicts == EXPECTED
    report("VC dateline queries, 4x4 torus, one session for 1/2/4 VCs",
           f"verdicts {verdicts}; {session.queries} peels over "
           f"{session.edge_count} edges")


@pytest.mark.parametrize("vcs", VC_COUNTS)
def test_bench_vc_channel_graph_construction(benchmark, mesh_relations,
                                             vcs):
    """Enumerating the (port, vc) dependency graph of the escape relation."""
    mesh, _ = mesh_relations
    relation = mesh_escape_routing(mesh, num_vcs=vcs)
    graph = benchmark(channel_dependency_graph, relation)
    assert graph.vertex_count == relation.topology.port_count


def test_bench_vc_explicit_check(benchmark, mesh_relations):
    """The explicit (V-1)/(V-2) checker on the repaired 2-VC mesh."""
    _, relations = mesh_relations
    result = benchmark(check_deadlock_freedom_vc, relations[2])
    assert result.holds


def test_bench_vc_portfolio_sweep(benchmark):
    """The VC escape portfolio slice of the batch driver."""

    def sweep():
        return run_portfolio(vc_escape_portfolio(
            mesh_sizes=(3,), torus_sizes=(), vc_counts=(1, 2)))

    result = benchmark.pedantic(sweep, rounds=2, iterations=1)
    report("VC escape portfolio (3x3 mesh, 1 and 2 VCs)",
           result.formatted() + "\n" + result.summary())
    assert [v.deadlock_free for v in result.verdicts] == [False, True]


def test_bench_vc_wormhole_simulation(benchmark):
    """VC wormhole switching (credits + link arbitration), 2-VC mesh."""
    instance = build_vc_mesh_instance(3, 3, num_vcs=2,
                                      route_policy="spread")
    workload = uniform_random_traffic(instance, num_messages=24,
                                      num_flits=4, seed=2010)

    def run():
        return Simulator(instance, max_steps=2000, verify=False).run(
            workload)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.genoc_result.evacuated
    report("VC wormhole simulation, 3x3 mesh, 2 VCs, spread policy",
           result.summary())
