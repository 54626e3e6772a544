"""The deadlock predicate ``Ω`` and deadlock-configuration analysis.

A deadlock-configuration (paper Section III-B) is a configuration in which
no message can make progress.  The predicate itself is delegated to the
switching policy (:meth:`repro.core.constituents.SwitchingPolicy.can_progress`);
this module adds the analysis used by the *necessity* direction of
Theorem 1: from a deadlock configuration, extract the set ``P`` of
unavailable ports, show that the next hop of every blocked message lies in
``P`` and derive a cycle among the ports of ``P``.

:class:`DeadlockQuerySession` is the incremental counterpart: the
dependency-edge universe of an instance is SAT-encoded **once** (one
selector variable per edge, see
:class:`repro.checking.incremental.AcyclicityOracle`) and every subsequent
deadlock question -- the full Theorem 1 condition, the condition restricted
to a port subset ``P'``, the condition after removing candidate escape
edges -- is a single solve under assumptions on the same solver, reusing
everything learned by earlier queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.configuration import Configuration, NOT_INJECTED
from repro.core.constituents import SwitchingPolicy
from repro.network.port import Port


def is_deadlock(config: Configuration, switching: SwitchingPolicy) -> bool:
    """``Ω(σ)``: there are pending messages and none of them can progress."""
    if config.is_finished():
        return False
    return not switching.can_progress(config)


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

    Built once from a dependency graph (declared or routing-induced), the
    session answers any number of deadlock-freedom questions through the
    same live CDCL solver:

    * :meth:`is_deadlock_free` -- the Theorem 1 condition itself;
    * :meth:`is_deadlock_free_for` -- the condition restricted to a port
      subset ``P'`` (obligation (C-3)'s literal ``∀ P' ⊆ P`` quantifier);
    * :meth:`is_deadlock_free_without` -- the condition after removing
      candidate escape edges;
    * :meth:`cycle_core` -- an UNSAT-core-derived edge subset that already
      contains a dependency cycle;
    * :meth:`escape_edges` -- the single-edge removals that would break
      every cycle.

    Every query is one ``solve`` under assumptions; learned clauses are
    shared, so related queries get cheaper as the session ages.
    """

    def __init__(self, graph, name: str = "dependency graph",
                 trace=None) -> None:
        from repro.checking.incremental import AcyclicityOracle

        self.name = name
        self._oracle = AcyclicityOracle(graph, trace=trace)

    # -- constructors ---------------------------------------------------------
    @classmethod
    def for_instance(cls, instance) -> "DeadlockQuerySession":
        """A session over the instance's declared dependency graph.

        Falls back to the routing-induced graph when the instance declares
        none (the deliberately deadlock-prone baselines).
        """
        if instance.dependency_spec is not None:
            return cls(instance.dependency_spec.to_graph(),
                       name=f"{instance.name} (declared)")
        return cls.for_routing(instance.routing, name=instance.name)

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
        return self._oracle.edges

    @property
    def edge_count(self) -> int:
        return len(self._oracle.edges)

    @property
    def queries(self) -> int:
        return self._oracle.stats_queries

    @property
    def solver_stats(self) -> Dict[str, int]:
        return self._oracle.solver_stats

    def set_interrupt(self, callback) -> None:
        """Install (or clear with ``None``) a cooperative solve budget.

        The portfolio driver uses this to enforce per-group deadlines on
        the serial path: ``callback`` returning a truthy reason makes the
        next (or the running) query raise
        :class:`~repro.core.errors.SolverTimeout`, with the session left
        reusable.
        """
        self._oracle.set_interrupt(callback)

    # -- growing the universe -------------------------------------------------
    def add_edge(self, source: Port, target: Port) -> None:
        """Add a dependency edge to the universe (idempotent).

        Used by the portfolio driver to merge several routing functions'
        dependency graphs into one shared encoding.
        """
        self._oracle.add_edge(source, target)

    def has_edge(self, source: Port, target: Port) -> bool:
        return self._oracle.has_edge(source, target)

    # -- queries --------------------------------------------------------------
    def is_deadlock_free(self) -> bool:
        """Theorem 1 condition: the dependency graph has no cycle."""
        return self._oracle.is_acyclic()

    def is_deadlock_free_edges(
            self, edges: Iterable[Tuple[Port, Port]]) -> bool:
        """The condition on an explicit edge subset of the universe."""
        return self._oracle.is_acyclic(edges)

    def cycle_core_for(self, edges: Iterable[Tuple[Port, Port]]
                       ) -> Optional[List[Tuple[Port, Port]]]:
        """Cycle-witness core for an explicit edge subset."""
        return self._oracle.cycle_core(edges)

    def is_deadlock_free_for(self, ports: Iterable[Port]) -> bool:
        """The condition restricted to the subgraph induced by ``ports``."""
        return self._oracle.is_acyclic_restricted_to(ports)

    # -- VC-class restrictions ------------------------------------------------
    def class_edges(self, vc_classes: Iterable[int]
                    ) -> List[Tuple[Port, Port]]:
        """The universe edges lying inside the given VC classes.

        Plain ports count as VC 0 (the degenerate single-channel case), so
        on a port-vertex universe ``class_edges({0})`` is the whole
        universe.
        """
        from repro.network.vc import vc_of

        classes = set(vc_classes)
        return self._oracle.edges_where(
            lambda vertex: vc_of(vertex) in classes)

    def is_deadlock_free_for_class(self,
                                   vc_classes: Iterable[int]) -> bool:
        """The condition restricted to one VC class of the universe.

        The per-VC-class analogue of the port-subset restriction
        :meth:`is_deadlock_free_for`: restricted to the escape class this is
        exactly the acyclicity half of the Duato-style VC deadlock
        condition (obligation (V-2)), answered by one incremental solve.
        """
        from repro.network.vc import vc_of

        classes = set(vc_classes)
        return self._oracle.is_acyclic_where(
            lambda vertex: vc_of(vertex) in classes)

    def cycle_core_for_class(self, vc_classes: Iterable[int]
                             ) -> Optional[List[Tuple[Port, Port]]]:
        """Cycle-witness core of one VC class (``None`` when acyclic)."""
        return self._oracle.cycle_core(self.class_edges(vc_classes))

    def is_deadlock_free_without(
            self, removed: Iterable[Tuple[Port, Port]]) -> bool:
        """The condition on the universe minus the given (escape) edges."""
        return self._oracle.is_acyclic_without(removed)

    def cycle_core(self) -> Optional[List[Tuple[Port, Port]]]:
        """An edge subset that already contains a cycle (``None`` if acyclic)."""
        return self._oracle.cycle_core()

    def escape_edges(self,
                     candidates: Optional[Iterable[Tuple[Port, Port]]] = None
                     ) -> List[Tuple[Port, Port]]:
        """Edges whose individual removal restores deadlock freedom.

        When ``candidates`` is ``None`` the UNSAT core is used as the
        candidate pool (an edge outside every cycle can never help), keeping
        the number of incremental solves proportional to the cycle, not to
        the graph.
        """
        if candidates is None:
            candidates = self.cycle_core() or []
        return self._oracle.critical_edges(candidates)

    def numbering(self) -> Dict[Port, int]:
        """A topological numbering witnessing deadlock freedom."""
        return self._oracle.numbering()


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
