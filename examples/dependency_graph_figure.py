#!/usr/bin/env python
"""Regenerate the paper's Fig. 3 (port dependency graph of a 2x2 mesh) and
Fig. 4 (flows) as text.

Run with::

    python examples/dependency_graph_figure.py [width] [height]
"""

from __future__ import annotations

import sys

from repro.checking.graphs import find_cycle_dfs
from repro.core.dependency import graph_statistics
from repro.hermes.dependency import build_exy_graph
from repro.hermes.flows import Flow, analyse_flows, flow_of, hermes_rank
from repro.network.mesh import Mesh2D


def main(width: int = 2, height: int = 2) -> None:
    mesh = Mesh2D(width, height)
    graph = build_exy_graph(mesh)

    print(f"Port dependency graph Exy_dep of a {width}x{height} mesh "
          f"(paper Fig. 3)")
    print("statistics:", graph_statistics(graph))
    # The search's post-order numbering is re-checked edge by edge.
    print("acyclic (certificate checked):", find_cycle_dfs(graph).acyclic)
    print()
    print("edges:")
    for source, target in sorted(graph.edges(), key=lambda e: (str(e[0]),
                                                                str(e[1]))):
        print(f"  {source} -> {target}")

    print()
    print(f"Flows of the {width}x{height} mesh (paper Fig. 4)")
    analysis = analyse_flows(mesh)
    for flow in Flow:
        members = analysis.members[flow]
        print(f"  {flow.value:<10} {len(members):>3} ports   "
              f"internal edges: {analysis.internal_edges[flow]:>3}   "
              f"escapes: { {k.value: v for k, v in analysis.escapes[flow].items()} }")
    print("  vertical flows escape only to sinks:",
          analysis.vertical_flows_escape_only_to_sinks)
    print("  horizontal flows escape only to vertical flows or sinks:",
          analysis.horizontal_flows_escape_only_to_vertical_or_sinks)

    print()
    print("Rank certificate (every edge strictly decreases the rank):")
    for source, target in sorted(graph.edges(), key=lambda e: (str(e[0]),
                                                                str(e[1])))[:12]:
        r_source = hermes_rank(source, width, height)
        r_target = hermes_rank(target, width, height)
        print(f"  rank{r_source} {source} -> rank{r_target} {target}")
    print("  ... (first 12 edges shown)")


if __name__ == "__main__":
    width = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    height = int(sys.argv[2]) if len(sys.argv) > 2 else 2
    main(width, height)
