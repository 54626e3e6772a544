"""The deadlock predicate ``Ω`` and deadlock-configuration analysis.

A deadlock-configuration (paper Section III-B) is a configuration in which
no message can make progress.  The predicate itself is delegated to the
switching policy (:meth:`repro.core.constituents.SwitchingPolicy.can_progress`);
this module adds the analysis used by the *necessity* direction of
Theorem 1: from a deadlock configuration, extract the set ``P`` of
unavailable ports, show that the next hop of every blocked message lies in
``P`` and derive a cycle among the ports of ``P``.

:class:`DeadlockQuerySession` is the incremental CDCL counterpart: the
dependency-edge universe is SAT-encoded **once** (one selector variable
per edge) and every deadlock question -- the Theorem 1 condition on the
universe or on one routing's (or one VC class's) edge subset, its cycle
core, the single-edge removals that would restore freedom -- is a solve
under assumptions on the same solver, reusing everything learned by
earlier queries.  It is the independent reference behind ``repro batch
--cross-check``, ``repro fuzz`` and ``repro deadlock``; every portfolio
verdict itself comes from the DFS of :mod:`repro.checking.graphs`.
"""

from __future__ import annotations

import math
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

    @property
    def has_cycle(self) -> bool:
        return bool(self.cycle)


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
    """Incremental Theorem 1 queries over one dependency-edge universe.

    The session is the one client of the CDCL solver
    (:class:`~repro.checking.sat.IncrementalSatSolver`).  Every port gets a
    binary counter; every edge ``u -> v`` of the universe is encoded once,
    behind its own selector variable, as the comparator ladder
    ``number(v) < number(u)``
    (:func:`~repro.checking.encodings.encode_numbering_constraint`).  An
    edge subset is acyclic iff its selectors are satisfiable together, so
    each question is one ``solve`` with those selectors as assumptions:

    * :meth:`is_deadlock_free` / :meth:`is_deadlock_free_edges` -- the
      Theorem 1 condition on the universe or on an edge subset (a routing's
      own edges in a shared universe, or the escape class of (V-2));
    * :meth:`cycle_core_for` -- an UNSAT-core edge subset that already
      contains a cycle;
    * :meth:`escape_edges_for` -- the single-edge removals that break
      every cycle of an edge subset.

    Learned clauses are shared, so related queries get cheaper as the
    session ages.
    """

    def __init__(self, graph, name: str = "dependency graph",
                 trace=None) -> None:
        # Imported here: the portfolio imports this module on every run,
        # and a default (DFS-decided) run must not load the SAT stack.
        from repro.checking.cnf import CNF
        from repro.checking.sat import IncrementalSatSolver

        self.name = name
        #: Optional :class:`repro.core.trace.TraceWriter`, shared with the
        #: solver so session events and solver events interleave.
        self.trace = trace
        #: Number of acyclicity queries answered so far.
        self.queries = 0
        self._cnf = CNF()
        self._solver = IncrementalSatSolver(trace=trace)
        self._loaded_clauses = 0
        vertices = sorted(graph.vertices, key=repr)
        self._vertex_index = {vertex: index
                              for index, vertex in enumerate(vertices)}
        self._width = max(1, math.ceil(math.log2(max(len(vertices), 2))))
        #: Per-vertex counter-bit variables, created by the vertex's first
        #: incident edge.
        self._bits: Dict[int, List[int]] = {}
        self._selector: Dict[Tuple[Port, Port], int] = {}
        self._edge_of: Dict[int, Tuple[Port, Port]] = {}
        self._edges: List[Tuple[Port, Port]] = []
        # Edges encoded since the last ``edge_batch`` event; the batch is
        # emitted lazily before the next traced query.
        self._pending_edges = 0
        added = False
        for source, target in graph.edges():
            added = self._encode_edge(source, target) or added
        if added:
            self._sync()

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
        return self._solver.stats

    def set_interrupt(self, callback) -> None:
        """Install (or clear with ``None``) a cooperative solve budget.

        The portfolio driver uses this to enforce per-group deadlines on
        the serial path: ``callback`` returning a truthy reason makes the
        next (or the running) query raise
        :class:`~repro.core.errors.SolverTimeout`, with the session left
        reusable.
        """
        self._solver.set_interrupt(callback)

    # -- growing the universe -------------------------------------------------
    def add_edge(self, source: Port, target: Port) -> None:
        """Add a dependency edge to the universe (idempotent).

        Used by the portfolio driver to merge several routing functions'
        dependency graphs into one shared encoding.
        """
        if self._encode_edge(source, target):
            self._sync()

    def _encode_edge(self, source: Port, target: Port) -> bool:
        """Encode one edge into the CNF (no solver sync); True if new."""
        from repro.checking.encodings import encode_numbering_constraint

        edge = (source, target)
        if edge in self._selector:
            return False
        index = self._vertex_index
        if source not in index or target not in index:
            raise ValueError(
                f"edge {source!r} -> {target!r} leaves the session's "
                f"vertex set")
        cnf = self._cnf
        selector = cnf.new_var()
        if source == target:
            # A self-loop is a cycle on its own: selecting it is
            # unsatisfiable.
            cnf.add_unit(-selector)
        else:
            cnf.add_clause((-selector, encode_numbering_constraint(
                cnf, self._bits, index[target], index[source],
                self._width)))
        self._selector[edge] = selector
        self._edge_of[selector] = edge
        self._edges.append(edge)
        self._pending_edges += 1
        return True

    def _sync(self) -> None:
        """Stream the clauses encoded since the last sync into the solver."""
        self._solver.ensure_vars(self._cnf.num_vars)
        loaded = self._loaded_clauses
        self._loaded_clauses = self._cnf.num_clauses
        self._solver.add_clauses(self._cnf.iter_clauses(start=loaded))

    # -- queries --------------------------------------------------------------
    def is_deadlock_free(self) -> bool:
        """Theorem 1 condition: the dependency graph has no cycle."""
        return self.is_deadlock_free_edges(self._edges)

    def is_deadlock_free_edges(
            self, edges: Iterable[Tuple[Port, Port]]) -> bool:
        """The condition on an explicit edge subset of the universe."""
        self.queries += 1
        assumptions = []
        for edge in edges:
            selector = self._selector.get(tuple(edge))
            if selector is None:
                raise KeyError(
                    f"edge {edge!r} is not in the session's universe")
            assumptions.append(selector)
        trace = self.trace
        if trace is not None and self._pending_edges:
            trace.emit("edge_batch", edges=self._pending_edges,
                       total=len(self._edges))
        self._pending_edges = 0
        self._sync()
        result = self._solver.solve(assumptions)
        if trace is not None:
            trace.emit("oracle_query", query=self.queries,
                       edges=len(assumptions), sat=result.satisfiable)
        return result.satisfiable

    def cycle_core_for(self, edges: Iterable[Tuple[Port, Port]]
                       ) -> Optional[List[Tuple[Port, Port]]]:
        """A subset of ``edges`` that already contains a cycle, or ``None``.

        When the queried subgraph is cyclic, the solver's UNSAT core over
        the edge selectors is exactly such a subset (typically close to one
        concrete cycle).
        """
        if self.is_deadlock_free_edges(edges):
            return None
        core = self._solver.last_core()
        if core is None:
            return None
        return [self._edge_of[literal] for literal in core
                if literal in self._edge_of]

    def escape_edges_for(self, edges: Iterable[Tuple[Port, Port]]
                         ) -> List[Tuple[Port, Port]]:
        """The edges whose single removal leaves ``edges`` acyclic.

        The escape-channel question: the cycle core is the candidate pool
        (an edge outside it cannot break the cycle it witnesses), and each
        candidate costs one solve on the same learned-clause database.
        Returns ``[]`` when ``edges`` is acyclic or when no single removal
        suffices.
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
