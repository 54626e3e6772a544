"""Fig. 4: the Northern and Western flows and the parametric (C-3) proof.

Fig. 4 of the paper illustrates the flows used to prove that ``Exy_dep`` has
no cycle for meshes of arbitrary size: vertical flows monotonically change
the y-coordinate and can only be left through a local out-port; horizontal
flows can additionally escape into a vertical flow.  This benchmark

* extracts the flows of concrete meshes and checks the escape properties,
* checks the rank certificate edge-by-edge (the per-instance form of the
  argument) and times it against the plain DFS cycle search,
* evaluates the size-independent case analysis (the parametric form).
"""

import pytest

from benchmarks.conftest import report
from repro.checking.graphs import find_cycle_dfs
from repro.hermes.dependency import build_exy_graph
from repro.hermes.flows import (
    Flow,
    analyse_flows,
    check_rank_case_analysis,
    check_rank_certificate_on_mesh,
    parametric_c3_holds,
)
from repro.network.mesh import Mesh2D
from repro.reporting.tables import format_table


@pytest.mark.parametrize("size", [2, 4, 6, 8])
def test_bench_flow_extraction(benchmark, size):
    mesh = Mesh2D(size, size)
    analysis = benchmark(analyse_flows, mesh)
    sizes = analysis.flow_sizes()
    rows = [[flow.value, sizes[flow], analysis.internal_edges[flow],
             {k.value: v for k, v in analysis.escapes[flow].items()}]
            for flow in Flow]
    report(f"Flows of the {size}x{size} mesh (Fig. 4)",
           format_table(["flow", "ports", "internal edges", "escapes"], rows))
    assert analysis.vertical_flows_escape_only_to_sinks
    assert analysis.horizontal_flows_escape_only_to_vertical_or_sinks
    # The paper's Northern flow (southbound ports) has one in/out pair per
    # vertical adjacency column segment.
    assert sizes[Flow.NORTHWARD] == sizes[Flow.SOUTHWARD]


@pytest.mark.parametrize("size", [2, 4, 8, 12])
def test_bench_rank_certificate_vs_cycle_search(benchmark, size):
    """The per-instance rank-certificate check (linear in the edges)."""
    mesh = Mesh2D(size, size)
    violations = benchmark(check_rank_certificate_on_mesh, mesh)
    assert violations == []
    # Cross-check with the plain cycle search.
    assert find_cycle_dfs(build_exy_graph(mesh)).acyclic


def test_bench_parametric_case_analysis(benchmark):
    """The size-independent case analysis (constant work, any mesh size)."""
    cases = benchmark(check_rank_case_analysis)
    rows = [[case.description, case.node_offset, case.decreases,
             case.coordinate_independent] for case in cases]
    report("Parametric (C-3) case analysis (21 edge kinds)",
           format_table(["edge kind", "node offset", "decreases",
                         "size-independent"], rows))
    assert parametric_c3_holds(cases)
    assert len(cases) == 21


def test_bench_parametric_vs_bounded_cost(benchmark):
    """Shape check: the parametric argument's cost does not grow with the
    mesh, while the bounded check's cost does."""
    import time

    def measure():
        rows = []
        for size in (2, 6, 10, 14):
            mesh = Mesh2D(size, size)
            start = time.perf_counter()
            check_rank_certificate_on_mesh(mesh)
            bounded = time.perf_counter() - start
            start = time.perf_counter()
            check_rank_case_analysis()
            parametric = time.perf_counter() - start
            rows.append([f"{size}x{size}", f"{bounded * 1000:.2f}",
                         f"{parametric * 1000:.2f}"])
        return rows

    rows = benchmark.pedantic(measure, rounds=2, iterations=1)
    report("Bounded vs parametric (C-3) check cost (ms)",
           format_table(["mesh", "bounded rank check", "parametric cases"],
                        rows))
    bounded_costs = [float(row[1]) for row in rows]
    assert bounded_costs[-1] > bounded_costs[0]
