"""Fig. 3: the port dependency graph of a 2x2 mesh (and larger).

Fig. 3 of the paper draws ``Exy_dep`` for a 2x2 mesh.  This benchmark
regenerates the graph's structure (24 ports for 2x2, with the local in-ports
as sources and the local out-ports as sinks), checks its acyclicity with four
independent graph-algorithmic methods, and reports how the graph and the
check cost scale with the mesh size -- the paper notes that for a fixed-size
instance "a simple search for a cycle suffices.  This search can be performed
in linear time".
"""

import pytest

from benchmarks.conftest import report
from repro.core.dependency import check_acyclicity, graph_statistics
from repro.hermes.dependency import build_exy_graph
from repro.network.mesh import Mesh2D
from repro.reporting.tables import format_table


@pytest.mark.parametrize("size", [2, 3, 4, 6, 8])
def test_bench_build_exy_dep(benchmark, size):
    """Constructing the declared dependency graph."""
    mesh = Mesh2D(size, size)
    graph = benchmark(build_exy_graph, mesh)
    stats = graph_statistics(graph)
    report(f"Exy_dep of a {size}x{size} mesh (Fig. 3)",
           format_table(["statistic", "value"], list(stats.items())))
    assert stats["vertices"] == mesh.expected_port_count()
    assert stats["sources"] == size * size   # local in-ports
    assert stats["sinks"] == size * size     # local out-ports
    if size == 2:
        assert stats["vertices"] == 24       # the Fig. 3 instance


@pytest.mark.parametrize("method", ["dfs", "scc", "toposort", "networkx"])
@pytest.mark.parametrize("size", [2, 4, 8])
def test_bench_acyclicity_methods(benchmark, method, size):
    """Ablation: the linear-time cycle checks on the concrete graph."""
    graph = build_exy_graph(Mesh2D(size, size))
    result = benchmark(check_acyclicity, graph, (method,))
    assert result.acyclic


def test_bench_scaling_summary(benchmark):
    """How the dependency graph and its check scale with mesh size."""
    import time

    def sweep():
        rows = []
        for size in (2, 4, 6, 8, 10):
            mesh = Mesh2D(size, size)
            graph = build_exy_graph(mesh)
            start = time.perf_counter()
            result = check_acyclicity(graph, methods=("dfs",))
            elapsed = time.perf_counter() - start
            rows.append([f"{size}x{size}", graph.vertex_count,
                         graph.edge_count, f"{elapsed * 1000:.2f}",
                         result.acyclic])
        return rows

    rows = benchmark.pedantic(sweep, rounds=2, iterations=1)
    report("Dependency-graph scaling",
           format_table(["mesh", "ports", "edges", "DFS check (ms)",
                         "acyclic"], rows))
    assert all(row[4] for row in rows)
