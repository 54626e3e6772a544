"""Port dependency graphs.

Theorem 1 of the paper states that a (deterministic) routing function is
deadlock-free iff there is no cycle in its *port dependency graph*: the graph
whose vertices are the ports of the network and whose edges are the pairs of
ports connected by the routing function.

Two related graphs appear in the methodology:

* the *routing-induced* graph, whose edges are exactly
  ``{(p, q) | ∃ reachable d . q ∈ R(p, d)}`` -- computed here by enumeration
  (:func:`routing_dependency_graph`);
* the *declared* dependency graph supplied by the user as part of the
  instantiation (``Exy_dep`` for HERMES, Section V.6), represented by the
  :class:`DependencyGraphSpec` interface.

Obligation (C-1) says the declared graph over-approximates the
routing-induced graph; obligation (C-2) says it does not over-approximate
too much (every declared edge is witnessed by a reachable destination);
obligation (C-3) says the declared graph is acyclic.
"""

from __future__ import annotations

import abc
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.constituents import RoutingFunction
from repro.core.errors import SpecificationError
from repro.network.port import Port
from repro.network.topology import Topology

if TYPE_CHECKING:
    # Imported where a graph is built or searched: declaring a spec (the
    # HERMES instance of ``repro simulate`` does) loads no graph code.
    from repro.checking.graphs import (
        CycleSearchResult,
        DirectedGraph,
        IdGraph,
    )


class DependencyGraphSpec(abc.ABC):
    """A user-declared port dependency graph.

    The specification is given port-wise (``edges_from``), mirroring the
    paper's definition of ``Exy_dep`` as a function from a port to its set of
    successor ports.
    """

    @property
    @abc.abstractmethod
    def topology(self) -> Topology:
        """The topology the graph is defined over."""

    @abc.abstractmethod
    def edges_from(self, port: Port) -> Set[Port]:
        """The dependency successors of ``port``."""

    # -- derived ------------------------------------------------------------------
    # The derived enumerations are pure functions of ``edges_from`` but are
    # requested over and over (every obligation, theorem and portfolio
    # scenario re-reads them), so they are computed once and memoised on the
    # instance.  A spec whose ``edges_from`` answer *changes* after the
    # first enumeration must call :meth:`_invalidate_cache`.

    def ports(self) -> List[Port]:
        cached = getattr(self, "_cached_ports", None)
        if cached is None:
            cached = self.topology.ports
            self._cached_ports = cached
        return cached

    def edges(self) -> List[Tuple[Port, Port]]:
        cached = getattr(self, "_cached_edges", None)
        if cached is None:
            cached = []
            for port in self.ports():
                for successor in sorted(self.edges_from(port), key=str):
                    cached.append((port, successor))
            self._cached_edges = cached
        return cached

    def has_edge(self, source: Port, target: Port) -> bool:
        return target in self.edges_from(source)

    def to_graph(self) -> DirectedGraph[Port]:
        """Materialise the spec as a (frozen, memoised) :class:`DirectedGraph`."""
        cached = getattr(self, "_cached_graph", None)
        if cached is None:
            from repro.checking.graphs import DirectedGraph

            graph: DirectedGraph[Port] = DirectedGraph()
            for port in self.ports():
                graph.add_vertex(port)
            for source, target in self.edges():
                if not self.topology.has_port(target):
                    raise SpecificationError(
                        f"dependency edge {source} -> {target} mentions a "
                        f"port that does not exist in the topology")
                graph.add_edge(source, target)
            cached = graph.freeze()
            self._cached_graph = cached
        return cached

    def _invalidate_cache(self) -> None:
        """Drop the memoised enumerations after a spec mutation."""
        self._cached_ports = None
        self._cached_edges = None
        self._cached_graph = None

    def validate(self) -> None:
        """Check that every declared edge stays inside the topology."""
        self.to_graph()


class ExplicitDependencySpec(DependencyGraphSpec):
    """A dependency graph given by an explicit edge dictionary."""

    def __init__(self, topology: Topology,
                 edges: Dict[Port, Set[Port]]) -> None:
        self._topology = topology
        self._edges = {port: set(successors)
                       for port, successors in edges.items()}

    @property
    def topology(self) -> Topology:
        return self._topology

    def edges_from(self, port: Port) -> Set[Port]:
        return set(self._edges.get(port, set()))


def dependency_id_graph(routing: RoutingFunction,
                        destinations: Optional[Sequence[Port]] = None,
                        ) -> IdGraph[Port]:
    """The dependency graph *induced* by a routing function, over port ids.

    Edges are the pairs ``(p, q)`` such that ``q ∈ R(p, d)`` for some
    reachable destination ``d`` (all of them, or the given
    ``destinations``).  They are read off the routing's
    :func:`~repro.routing.base.route_table`, which enumerates every port
    and destination once per routing object and records each port's
    successors as it fills: the vertices are ``table.ports``, and each
    port's successors come in destination order, then in hop order.
    """
    from repro.checking.graphs import IdGraph
    from repro.routing.base import route_table

    table = route_table(routing)
    columns = (None if destinations is None
               else [table.columns[d] for d in destinations
                     if d in table.columns])
    return IdGraph(table.ports, table.take_successors(columns))


def routing_dependency_graph(routing: RoutingFunction,
                             destinations: Optional[Sequence[Port]] = None,
                             ) -> DirectedGraph[Port]:
    """:func:`dependency_id_graph` keyed by port: every port, then the
    edges port by port, then in destination order, then in hop order.
    Every call returns a fresh, mutable graph."""
    return dependency_id_graph(routing, destinations).to_graph()


class AcyclicityReport:
    """Result of checking a dependency graph for cycles with every method."""

    def __init__(self, graph: DirectedGraph[Port]) -> None:
        self.graph = graph
        self.dfs_result: Optional[CycleSearchResult] = None
        self.by_method: Dict[str, bool] = {}

    @property
    def acyclic(self) -> bool:
        if not self.by_method:
            raise ValueError("no acyclicity check has been run")
        return all(self.by_method.values())

    @property
    def consistent(self) -> bool:
        """Did every method agree?"""
        values = set(self.by_method.values())
        return len(values) <= 1

    @property
    def cycle(self) -> Optional[List[Port]]:
        if self.dfs_result is None:
            return None
        return self.dfs_result.cycle


def check_acyclicity(graph: DirectedGraph[Port],
                     methods: Sequence[str] = ("dfs", "scc", "toposort"),
                     ) -> AcyclicityReport:
    """Check acyclicity with several independent methods and cross-compare.

    Supported methods: ``dfs``, ``scc``, ``toposort`` and ``networkx``.
    """
    from repro.checking.graphs import (
        find_cycle_dfs,
        is_acyclic_by_networkx,
        is_acyclic_by_scc,
        is_acyclic_by_toposort,
    )

    report = AcyclicityReport(graph)
    for method in methods:
        if method == "dfs":
            report.dfs_result = find_cycle_dfs(graph)
            report.by_method["dfs"] = report.dfs_result.acyclic
        elif method == "scc":
            report.by_method["scc"] = is_acyclic_by_scc(graph)
        elif method == "toposort":
            report.by_method["toposort"] = is_acyclic_by_toposort(graph)
        elif method == "networkx":
            report.by_method["networkx"] = is_acyclic_by_networkx(graph)
        else:
            raise ValueError(f"unknown acyclicity method {method!r}")
    if not report.consistent:
        raise AssertionError(
            f"acyclicity checkers disagree: {report.by_method}")
    return report


def channel_dependency_graph(relation) -> DirectedGraph:
    """The ``(port, vc)``-granular dependency graph of a VC routing relation.

    A :class:`~repro.routing.escape.EscapeChannelRouting` (or any routing
    relation over a :class:`~repro.network.vc.VCTopology`) is a routing
    function whose "ports" are channels, so the graph is the plain
    routing-induced enumeration -- the VC-selection function being part of
    the relation is what puts the edges at channel granularity.  Named
    separately because the *verdict* read off this graph differs: for a
    relation with a separated escape class the deadlock condition is not
    whole-graph acyclicity but the (V-1)/(V-2) pair of
    :func:`repro.core.theorems.check_deadlock_freedom_vc`.
    """
    return routing_dependency_graph(relation)


def class_edges(graph: DirectedGraph, vc_classes: Iterable[int]
                ) -> List[Tuple]:
    """The edges of a channel graph lying inside the given VC classes.

    The edge-list form of :func:`class_subgraph`, shared by the (V-2)
    checkers and the portfolio driver so the class filter has one
    definition.
    """
    from repro.network.vc import vc_of

    classes = set(vc_classes)
    return [(source, target) for source, target in graph.edges()
            if vc_of(source) in classes and vc_of(target) in classes]


def class_subgraph(graph: DirectedGraph, vc_classes: Iterable[int]
                   ) -> DirectedGraph:
    """The subgraph of a channel graph induced by the given VC classes.

    Plain ports count as VC 0, so on a port-vertex graph
    ``class_subgraph(graph, {0})`` is the graph itself -- the degenerate
    single-VC case under which (V-2) coincides with the paper's Theorem 1
    condition.
    """
    from repro.network.vc import vc_of

    classes = set(vc_classes)
    return graph.subgraph(vertex for vertex in graph.vertices
                          if vc_of(vertex) in classes)


def graph_statistics(graph: DirectedGraph[Port]) -> Dict[str, int]:
    """Vertex/edge statistics used by the Fig. 3 benchmark."""
    in_degrees = graph.in_degrees()
    return {
        "vertices": graph.vertex_count,
        "edges": graph.edge_count,
        "sources": sum(1 for degree in in_degrees.values() if degree == 0),
        "sinks": sum(1 for vertex in graph.vertices
                     if graph.out_degree(vertex) == 0),
        "max_out_degree": max((graph.out_degree(vertex)
                               for vertex in graph.vertices), default=0),
        "max_in_degree": max(in_degrees.values(), default=0),
    }
