"""Independent correctness reference for the batch workloads.

Every verdict ``repro batch`` reports is re-derived here without the
program's verdict path: dependency edges are enumerated straight from the
public routing API (``topology.ports``, ``routing.destinations()``,
``reachable``, ``next_hops``) instead of ``routing_dependency_graph``,
cycles are found by an iterative DFS written here instead of the SAT
session, and escape edges are derived as the edges lying on every cycle.
Virtual-channel scenarios are decided by the explicit
``check_deadlock_freedom_vc`` over the graph enumerated here.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple


def dependency_edges(routing) -> Set[Tuple[object, object]]:
    """``{(p, q) | q in R(p, d)}`` over every reachable destination ``d``."""
    destinations = list(routing.destinations())
    edges: Set[Tuple[object, object]] = set()
    for port in routing.topology.ports:
        for destination in destinations:
            if port == destination or not routing.reachable(port,
                                                            destination):
                continue
            for successor in routing.next_hops(port, destination):
                edges.add((port, successor))
    return edges


def find_cycle(edges: Iterable[Tuple[object, object]]
               ) -> Optional[List[Tuple[object, object]]]:
    """One directed cycle as its edge list, or ``None`` when acyclic."""
    adjacency: Dict[object, List[object]] = {}
    for source, target in edges:
        adjacency.setdefault(source, []).append(target)
    on_path, done = set(), set()
    for root in adjacency:
        if root in done:
            continue
        path = [root]
        on_path.add(root)
        stack = [iter(adjacency[root])]
        while stack:
            for successor in stack[-1]:
                if successor in on_path:
                    cycle = path[path.index(successor):] + [successor]
                    return list(zip(cycle, cycle[1:]))
                if successor not in done:
                    path.append(successor)
                    on_path.add(successor)
                    stack.append(iter(adjacency.get(successor, ())))
                    break
            else:
                node = path.pop()
                on_path.discard(node)
                done.add(node)
                stack.pop()
    return None


def escape_edges(edges: Set[Tuple[object, object]]) -> List[str]:
    """The edges on every cycle: those of one cycle whose removal alone
    leaves the graph acyclic (an edge missing from some cycle cannot)."""
    cycle = find_cycle(edges)
    if cycle is None:
        return []
    return sorted(f"{source} -> {target}" for source, target in cycle
                  if find_cycle(edges - {(source, target)}) is None)


def reference_verdict(spec) -> Dict[str, object]:
    """The expected ``deadlock_free`` bit, edge count and escape edges."""
    from repro.checking.graphs import DirectedGraph
    from repro.core.theorems import check_deadlock_freedom_vc
    from repro.network.vc import vc_of
    from repro.routing.escape import EscapeChannelRouting

    routing = spec.build().routing
    edges = dependency_edges(routing)
    if isinstance(routing, EscapeChannelRouting):
        graph = DirectedGraph()
        for port in routing.topology.ports:
            graph.add_vertex(port)
        for source, target in edges:
            graph.add_edge(source, target)
        free = check_deadlock_freedom_vc(routing, graph=graph).holds
        escape_vcs = set(routing.escape_vcs)
        query = {(source, target) for source, target in edges
                 if vc_of(source) in escape_vcs
                 and vc_of(target) in escape_vcs}
    else:
        query = edges
        free = find_cycle(edges) is None
    return {"deadlock_free": free, "edges": len(edges),
            "escape_edges": [] if free else escape_edges(query)}


def comparable(report: Dict[str, object]) -> Dict[str, object]:
    """The deterministic projection of a batch report.

    Mirrors ``PortfolioReport.comparable_dict``: wall times, job and cache
    counters, shard/spec markers, recovery and store blocks are run
    history; everything else (verdicts, cores, escape edges, solver
    counters) must repeat exactly.
    """
    payload = {key: value for key, value in report.items()
               if key not in ("jobs", "cache", "shard", "recovery", "store")}
    payload["scenarios"] = [
        {key: value for key, value in entry.items()
         if key not in ("wall_time_s", "spec", "shard")}
        for entry in report.get("scenarios", [])]
    payload["summary"] = {
        key: value for key, value in report.get("summary", {}).items()
        if key not in ("elapsed_seconds", "jobs", "cache_hits",
                       "cache_misses")}
    return payload


def scenario_problems(report: Dict[str, object],
                      expected: List[Dict[str, object]],
                      baseline: Optional[Dict[str, object]] = None
                      ) -> Dict[int, str]:
    """The failed scenarios of one batch report, by index, with a reason.

    A scenario fails when it is not ``ok``, when its verdict bit, edge
    count or escape-edge set differs from the reference, or -- given the
    :func:`comparable` projection of an earlier run of the same matrix --
    when any of its exact fields, solver counters included, differs from
    that run (nondeterminism).
    """
    scenarios = report.get("scenarios", [])
    if len(scenarios) != len(expected):
        return {index: f"report has {len(scenarios)} of {len(expected)} "
                       f"scenarios" for index in range(len(expected))}
    projected = comparable(report)["scenarios"]
    problems = {}
    for index, (entry, want) in enumerate(zip(scenarios, expected)):
        got = {"deadlock_free": entry.get("deadlock_free"),
               "edges": entry.get("edges"),
               "escape_edges": sorted(entry.get("escape_edges") or [])}
        if entry.get("status") != "ok" or got != want:
            problems[index] = (f"{entry.get('scenario')}: status "
                               f"{entry.get('status')}, got {got}, "
                               f"expected {want}")
        elif (baseline is not None
              and projected[index] != baseline["scenarios"][index]):
            problems[index] = (f"{entry.get('scenario')}: nondeterministic "
                               f"(differs from an earlier run)")
    return problems
