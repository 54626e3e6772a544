"""The deadlock predicate ``Ω`` and deadlock-configuration analysis.

A deadlock-configuration (paper Section III-B) is a configuration in which
no message can make progress.  The predicate itself is delegated to the
switching policy (:meth:`repro.core.constituents.SwitchingPolicy.can_progress`);
this module adds the analysis used by the *necessity* direction of
Theorem 1: from a deadlock configuration, extract the set ``P`` of
unavailable ports, show that the next hop of every blocked message lies in
``P`` and derive a cycle among the ports of ``P``.

:class:`DeadlockQuerySession` is the Theorem 1 counterpart over a
dependency-edge universe: every deadlock question -- the condition on the
universe or on one routing's (or one VC class's) edge subset, a cycle of
it, the single-edge removals that would restore freedom -- is one Kahn
peel of the queried edges.  It is the independent reference behind
``repro batch --cross-check``, ``repro fuzz`` and ``repro deadlock``;
every portfolio verdict itself comes from the DFS of
:mod:`repro.checking.graphs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.configuration import Configuration, NOT_INJECTED
from repro.core.constituents import SwitchingPolicy, is_deadlock
from repro.network.port import Port


@dataclass
class BlockedMessage:
    """A pending message that cannot currently advance.

    ``current`` is the port holding its header flit (or ``None`` if the
    header has not been injected yet) and ``wanted`` the port it needs next.
    """

    travel_id: int
    current: Optional[Port]
    wanted: Optional[Port]


@dataclass
class DeadlockAnalysis:
    """Result of analysing a (potential) deadlock configuration."""

    is_deadlock: bool
    blocked: List[BlockedMessage] = field(default_factory=list)
    unavailable_ports: List[Port] = field(default_factory=list)
    #: The "knot" edges: for every blocked message holding port ``p`` and
    #: wanting port ``q``, the pair ``(p, q)``.
    wait_edges: List[Tuple[Port, Port]] = field(default_factory=list)
    cycle: Optional[List[Port]] = None


def analyse_deadlock(config: Configuration,
                     switching: SwitchingPolicy) -> DeadlockAnalysis:
    """Analyse ``config`` and, if it is deadlocked, extract a wait-for cycle.

    The construction mirrors the necessity proof of Theorem 1 (Section
    IV-A): the witness set is the set of unavailable ports; for each blocked
    message holding port ``p`` and needing port ``q``, ``q`` must be
    unavailable (otherwise the message could move, contradicting the
    deadlock), so every vertex of the wait-for graph restricted to
    unavailable ports has an outgoing edge, and any finite graph in which
    every vertex has a successor contains a cycle.
    """
    deadlocked = is_deadlock(config, switching)
    analysis = DeadlockAnalysis(is_deadlock=deadlocked)
    if not deadlocked:
        return analysis

    analysis.unavailable_ports = config.state.unavailable_ports()
    unavailable: Set[Port] = set(analysis.unavailable_ports)

    # Build the successor map of the paper's necessity argument: for every
    # blocked message, the ports its worm occupies form a path along its
    # route (all of them unavailable), and the header's next hop -- also
    # unavailable, otherwise the message could move -- continues the path
    # into the worm of another message.  Every dependency edge of this map is
    # an edge of the port dependency graph (by obligation (C-1)), so a cycle
    # in it is a cycle of the dependency graph.
    successor: Dict[Port, Port] = {}
    for travel in config.travels:
        record = config.progress.get(travel.travel_id)
        if record is None:
            continue
        head = record.header_position
        route = record.route
        if head == record.ejected_position:
            continue
        if head == NOT_INJECTED:
            wanted = route[0]
            current = None
        elif head == len(route) - 1:
            # Header at the destination: ejection is always possible, so this
            # message cannot be part of a deadlock knot.
            continue
        else:
            current = route[head]
            wanted = route[head + 1]
        analysis.blocked.append(
            BlockedMessage(travel_id=travel.travel_id, current=current,
                           wanted=wanted))
        if current is None or wanted is None:
            continue
        analysis.wait_edges.append((current, wanted))
        occupied = record.occupied_route_indices()
        for earlier, later in zip(occupied, occupied[1:]):
            if later == earlier + 1:
                source, target = route[earlier], route[later]
                if source in unavailable and target in unavailable:
                    successor.setdefault(source, target)
        if current in unavailable and wanted in unavailable:
            successor.setdefault(current, wanted)

    analysis.cycle = _find_cycle_in_functional_graph(successor)
    return analysis


def _find_cycle_in_functional_graph(successor: Dict[Port, Port]
                                    ) -> Optional[List[Port]]:
    """Find a cycle in a graph where each vertex has at most one successor.

    In a deadlock, every unavailable port holding a blocked header has an
    unavailable successor, so following successors from any such port must
    eventually revisit a port (the graph is finite).  Returns the cycle as a
    list of ports (without repeating the first port at the end), or ``None``
    if the graph has no cycle.
    """
    visited_globally: Set[Port] = set()
    for start in successor:
        if start in visited_globally:
            continue
        path: List[Port] = []
        index_of: Dict[Port, int] = {}
        current: Optional[Port] = start
        while current is not None and current not in visited_globally:
            if current in index_of:
                return path[index_of[current]:]
            index_of[current] = len(path)
            path.append(current)
            current = successor.get(current)
        visited_globally.update(path)
    return None


class DeadlockQuerySession:
    """Theorem 1 queries over one dependency-edge universe, by Kahn peeling.

    The universe is the set of edges added so far over a fixed vertex set.
    Every question names an edge subset of it and costs one peel of that
    subgraph (:func:`~repro.checking.graphs.kahn_peel`): in-degree-0
    vertices are removed until none is left, and the subgraph is acyclic
    iff nothing remains.

    * :meth:`is_deadlock_free` / :meth:`is_deadlock_free_edges` -- the
      Theorem 1 condition on the universe or on an edge subset (a routing's
      own edges in a shared universe, or the escape class of (V-2));
    * :meth:`cycle_core_for` -- one cycle of an edge subset;
    * :meth:`escape_edges_for` -- the single-edge removals that break
      every cycle of an edge subset.

    The peel shares no code with the DFS of
    :func:`~repro.checking.graphs.find_cycle_dfs`, which decides every
    portfolio verdict; that makes the session the independent reference
    behind ``repro batch --cross-check``, ``repro fuzz`` and ``repro
    deadlock``.
    """

    def __init__(self, graph, name: str = "dependency graph",
                 trace=None) -> None:
        self.name = name
        #: Optional :class:`repro.core.trace.TraceWriter`; every query
        #: emits one ``oracle_query`` event.
        self.trace = trace
        #: Number of peels run so far (one per query).
        self.queries = 0
        self._vertices = set(graph.vertices)
        self._edges: Dict[Tuple[Port, Port], None] = {}
        for source, target in graph.edges():
            self.add_edge(source, target)

    @classmethod
    def for_routing(cls, routing,
                    name: Optional[str] = None) -> "DeadlockQuerySession":
        """A session over the routing-induced dependency graph."""
        from repro.core.dependency import routing_dependency_graph

        graph = routing_dependency_graph(routing)
        return cls(graph, name=name or f"{routing.name()} (induced)")

    # -- introspection --------------------------------------------------------
    @property
    def edges(self) -> List[Tuple[Port, Port]]:
        """The edge universe, in insertion order."""
        return list(self._edges)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    @property
    def solver_stats(self) -> Dict[str, int]:
        return {"solves": self.queries}

    # -- growing the universe -------------------------------------------------
    def add_vertices(self, vertices: Iterable[Port]) -> None:
        """Grow the vertex set the universe's edges may join."""
        self._vertices.update(vertices)

    def add_edge(self, source: Port, target: Port) -> None:
        """Add a dependency edge to the universe (idempotent).

        Used by the portfolio driver to merge several routing functions'
        dependency graphs into one shared universe.
        """
        if source not in self._vertices or target not in self._vertices:
            raise ValueError(
                f"edge {source!r} -> {target!r} leaves the session's "
                f"vertex set")
        self._edges[(source, target)] = None

    # -- queries --------------------------------------------------------------
    def _peel(self, edges: Iterable[Tuple[Port, Port]]
              ) -> Tuple[List[Tuple[Port, Port]], List[Port]]:
        """One query: the edges of the subset and the residue its peel
        leaves (empty iff the subset is acyclic)."""
        from repro.checking.graphs import kahn_peel

        self.queries += 1
        universe = self._edges
        query: List[Tuple[Port, Port]] = []
        successors: Dict[Port, List[Port]] = {}
        in_degree: Dict[Port, int] = {}
        for edge in edges:
            if edge not in universe:
                raise KeyError(
                    f"edge {edge!r} is not in the session's universe")
            source, target = edge
            query.append(edge)
            successors.setdefault(source, []).append(target)
            successors.setdefault(target, [])
            in_degree.setdefault(source, 0)
            in_degree[target] = in_degree.get(target, 0) + 1
        _, residue = kahn_peel(in_degree, successors)
        if self.trace is not None:
            self.trace.emit("oracle_query", query=self.queries,
                            edges=len(query), free=not residue)
        return query, residue

    def is_deadlock_free(self) -> bool:
        """Theorem 1 condition: the dependency graph has no cycle."""
        return self.is_deadlock_free_edges(self._edges)

    def is_deadlock_free_edges(
            self, edges: Iterable[Tuple[Port, Port]]) -> bool:
        """The condition on an explicit edge subset of the universe."""
        return not self._peel(edges)[1]

    def cycle_core_for(self, edges: Iterable[Tuple[Port, Port]]
                       ) -> Optional[List[Tuple[Port, Port]]]:
        """One cycle of ``edges``, as its edges, or ``None`` if acyclic.

        Every vertex the peel leaves keeps a predecessor it also leaves,
        so walking predecessors from any of them repeats a vertex; the
        walk from that vertex on is the cycle.
        """
        query, residue = self._peel(edges)
        if not residue:
            return None
        left = set(residue)
        predecessor: Dict[Port, Port] = {}
        for source, target in query:
            if source in left and target in left:
                predecessor.setdefault(target, source)
        walk: Dict[Port, None] = {}
        vertex = residue[0]
        while vertex not in walk:
            walk[vertex] = None
            vertex = predecessor[vertex]
        cycle = list(walk)
        cycle = cycle[cycle.index(vertex):]
        return [(predecessor[target], target) for target in reversed(cycle)]

    def escape_edges_for(self, edges: Iterable[Tuple[Port, Port]]
                         ) -> List[Tuple[Port, Port]]:
        """The edges whose single removal leaves ``edges`` acyclic.

        The escape-channel question: the cycle core is the candidate pool
        (an edge outside it cannot break the cycle it witnesses), and each
        candidate costs one peel.  Returns ``[]`` when ``edges`` is
        acyclic or when no single removal suffices.
        """
        edges = list(edges)
        return [edge for edge in self.cycle_core_for(edges) or []
                if self.is_deadlock_free_edges(
                    kept for kept in edges if kept != edge)]


def count_blocked_messages(config: Configuration,
                           switching: SwitchingPolicy) -> int:
    """Number of pending messages that cannot advance right now.

    Unlike :func:`is_deadlock`, this is meaningful for non-deadlocked
    configurations too and is used by the simulation metrics (a congestion
    indicator).
    """
    analysis_total = 0
    for travel in config.travels:
        record = config.progress.get(travel.travel_id)
        if record is None:
            continue
        if not _can_travel_progress(config, record):
            analysis_total += 1
    return analysis_total


def _can_travel_progress(config: Configuration, record) -> bool:
    """Can the header of the given travel move (inject, advance or eject)?"""
    head = record.header_position
    route = record.route
    if head == record.ejected_position:
        return True
    if head == len(route) - 1:
        return True
    if head == NOT_INJECTED:
        target = route[0]
    else:
        target = route[head + 1]
    return config.state.accepts(target, record.travel.travel_id)
