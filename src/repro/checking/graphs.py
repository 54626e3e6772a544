"""Directed-graph algorithms used to check dependency-graph acyclicity.

The paper notes (Section VII) that for a fixed-size network "a simple search
for a cycle suffices.  This search can be performed in linear time".  This
module provides that search in three independent flavours -- iterative DFS
with an explicit stack, Tarjan's strongly-connected-components algorithm and
Kahn's topological sort (whose peel, :func:`kahn_peel`, also decides the
queries of :class:`repro.core.deadlock.DeadlockQuerySession`) -- plus a
cross-check against :mod:`networkx`.
Having several independent implementations of the same decision procedure is
the library's substitute for the redundancy a theorem prover gives for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    Generic,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

V = TypeVar("V", bound=Hashable)


class DirectedGraph(Generic[V]):
    """A simple adjacency directed graph over hashable vertices.

    Successor collections are insertion-ordered dicts rather than sets:
    iteration order (``edges()``, degrees, exports) then follows the
    deterministic construction order instead of the process's randomized
    hash order.  This is what makes cycles, cores and peel counts -- and
    therefore the portfolio determinism contract -- reproducible across
    *processes*, not just within one (worker pools included, whatever the
    start method).
    """

    def __init__(self) -> None:
        self._successors: Dict[V, Dict[V, None]] = {}
        self._frozen = False

    # -- construction ------------------------------------------------------------
    def add_vertex(self, vertex: V) -> None:
        if self._frozen:
            raise ValueError("graph is frozen (shared through a cache); "
                             "copy it before mutating")
        self._successors.setdefault(vertex, {})

    def add_edge(self, source: V, target: V) -> None:
        if self._frozen:
            raise ValueError("graph is frozen (shared through a cache); "
                             "copy it before mutating")
        self.add_vertex(source)
        self.add_vertex(target)
        self._successors[source][target] = None

    def freeze(self) -> "DirectedGraph[V]":
        """Make the graph immutable and return it.

        Frozen graphs can be shared safely -- e.g. the memoised
        ``DependencyGraphSpec.to_graph`` -- because any later
        ``add_vertex``/``add_edge`` raises instead of silently corrupting
        every holder of the reference.  Derived graphs (:meth:`subgraph`,
        :meth:`reverse`) are fresh, mutable objects.
        """
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    @classmethod
    def from_edges(cls, edges: Iterable[Tuple[V, V]],
                   vertices: Optional[Iterable[V]] = None) -> "DirectedGraph[V]":
        graph: DirectedGraph[V] = cls()
        if vertices is not None:
            for vertex in vertices:
                graph.add_vertex(vertex)
        for source, target in edges:
            graph.add_edge(source, target)
        return graph

    # -- queries --------------------------------------------------------------------
    @property
    def vertices(self) -> List[V]:
        return list(self._successors)

    @property
    def vertex_count(self) -> int:
        return len(self._successors)

    @property
    def edge_count(self) -> int:
        return sum(len(targets) for targets in self._successors.values())

    def successors(self, vertex: V) -> Set[V]:
        return set(self._successors.get(vertex, ()))

    def has_edge(self, source: V, target: V) -> bool:
        return target in self._successors.get(source, ())

    def edges(self) -> List[Tuple[V, V]]:
        return [(source, target)
                for source, targets in self._successors.items()
                for target in targets]

    def out_degree(self, vertex: V) -> int:
        return len(self._successors.get(vertex, ()))

    def in_degrees(self) -> Dict[V, int]:
        degrees: Dict[V, int] = {vertex: 0 for vertex in self._successors}
        for targets in self._successors.values():
            for target in targets:
                degrees[target] += 1
        return degrees

    def subgraph(self, vertices: Iterable[V]) -> "DirectedGraph[V]":
        keep = set(vertices)
        sub: DirectedGraph[V] = DirectedGraph()
        for vertex in keep:
            if vertex in self._successors:
                sub.add_vertex(vertex)
        for source, targets in self._successors.items():
            if source not in keep:
                continue
            for target in targets:
                if target in keep:
                    sub.add_edge(source, target)
        return sub

    def reverse(self) -> "DirectedGraph[V]":
        rev: DirectedGraph[V] = DirectedGraph()
        for vertex in self._successors:
            rev.add_vertex(vertex)
        for source, targets in self._successors.items():
            for target in targets:
                rev.add_edge(target, source)
        return rev

    def to_networkx(self):
        """Export to a :class:`networkx.DiGraph` (used for cross-checking)."""
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self._successors)
        graph.add_edges_from(self.edges())
        return graph


class IdGraph(Generic[V]):
    """A directed graph over dense ids: ``vertices[i]`` is vertex ``i``,
    ``successors[i]`` its successor ids in insertion order and ``roots``
    the order a cycle search takes its roots in (every id by default)."""

    def __init__(self, vertices: Sequence[V],
                 successors: Sequence[Sequence[int]],
                 roots: Optional[Sequence[int]] = None) -> None:
        self.vertices = vertices
        self.successors = successors
        self.roots = range(len(vertices)) if roots is None else roots

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.successors))

    def edges(self) -> List[Tuple[V, V]]:
        """The edges as vertex pairs, source by source in id order."""
        vertices = self.vertices
        return [(vertices[p], vertices[q])
                for p, row in enumerate(self.successors) for q in row]

    def to_graph(self) -> DirectedGraph[V]:
        """A fresh :class:`DirectedGraph`: every vertex, then every edge."""
        return DirectedGraph.from_edges(self.edges(), self.vertices)

    def restrict(self, keep: Sequence[bool]) -> "IdGraph[V]":
        """The edges whose two ends are kept.

        Roots come in the order the kept edges first name their ends, as
        ``DirectedGraph.from_edges`` of those edges orders its vertices.
        """
        successors: List[List[int]] = []
        roots: List[int] = []
        placed = bytearray(len(self.vertices))
        for p, row in enumerate(self.successors):
            kept = [q for q in row if keep[q]] if keep[p] else []
            for q in kept:
                if not placed[p]:
                    placed[p] = 1
                    roots.append(p)
                if not placed[q]:
                    placed[q] = 1
                    roots.append(q)
            successors.append(kept)
        return IdGraph(self.vertices, successors, roots)


class ReprRanks:
    """Vertex values numbered in ``repr`` order, each ``repr`` taken once.

    :meth:`ranks` gives each vertex a number that compares as its
    ``repr`` does (:func:`find_cycle_dfs`'s successor order), so graphs
    over the same values share the work.  Numbers cover every value seen
    so far; a call with new values renumbers.
    """

    def __init__(self) -> None:
        self._texts: Dict[Hashable, str] = {}
        self._ranks: Dict[Hashable, int] = {}

    def ranks(self, vertices: Sequence[V]) -> List[int]:
        try:
            return [self._ranks[vertex] for vertex in vertices]
        except KeyError:
            texts = self._texts
            texts.update((vertex, repr(vertex)) for vertex in vertices
                         if vertex not in texts)
            self._ranks = dict(zip(sorted(texts, key=texts.__getitem__),
                                   range(len(texts))))
            return [self._ranks[vertex] for vertex in vertices]


@dataclass
class CycleSearchResult(Generic[V]):
    """Outcome of a cycle search."""

    acyclic: bool
    cycle: Optional[List[V]] = None
    #: Number of vertices visited (an effort indicator for the benchmarks).
    visited: int = 0

    def __bool__(self) -> bool:  # pragma: no cover - convenience only
        return self.acyclic


# ---------------------------------------------------------------------------
# DFS cycle search
# ---------------------------------------------------------------------------

def find_cycle_dfs(graph: DirectedGraph[V]) -> CycleSearchResult[V]:
    """Find a cycle by iterative depth-first search (white/grey/black).

    Roots are taken in ``graph.vertices`` order and successors in ``repr``
    order, so the search -- and the cycle it returns -- depends only on
    the graph, not on hash order.  Returns the cycle as a vertex list
    (without repeating the first vertex) if one exists.
    """
    by_rank, ids, successors = _ranked_ids(graph)
    cycle, visited = _dfs(ids.values(), successors)
    if cycle is None:
        return CycleSearchResult(acyclic=True, cycle=None, visited=visited)
    return CycleSearchResult(acyclic=False, visited=visited,
                             cycle=[by_rank[vertex] for vertex in cycle])


def _ranked_ids(graph: DirectedGraph[V]
                ) -> Tuple[List[V], Dict[V, int], List[List[int]]]:
    """The graph over dense ids: a vertex's id is its rank by ``repr``.

    Returns the vertices by id, each vertex's id in ``graph.vertices``
    order (the DFS roots) and each id's successor ids in ascending order,
    which is ``repr`` order.  Every vertex is ranked once per graph.
    """
    vertices = graph.vertices
    texts = [repr(vertex) for vertex in vertices]
    order = sorted(range(len(vertices)), key=texts.__getitem__)
    ranks = [0] * len(vertices)
    for rank, position in enumerate(order):
        ranks[position] = rank
    ids = dict(zip(vertices, ranks))
    successors: List[List[int]] = [[] for _ in vertices]
    for vertex, targets in graph._successors.items():
        successors[ids[vertex]] = sorted([ids[target] for target in targets])
    return [vertices[position] for position in order], ids, successors


def _dfs(roots: Iterable[int], successors: Sequence[Sequence[int]]
         ) -> Tuple[Optional[List[int]], int]:
    """White/grey/black DFS over dense ids: ``(cycle or None, visited)``."""
    WHITE, GREY, BLACK = 0, 1, 2
    colour = bytearray(len(successors))
    parent = [-1] * len(successors)
    visited = 0
    for root in roots:
        if colour[root] != WHITE:
            continue
        colour[root] = GREY
        visited += 1
        stack = [(root, iter(successors[root]))]
        while stack:
            vertex, pending = stack[-1]
            for successor in pending:
                if colour[successor] == WHITE:
                    colour[successor] = GREY
                    parent[successor] = vertex
                    visited += 1
                    stack.append((successor, iter(successors[successor])))
                    break
                if colour[successor] == GREY:
                    # Walk the parent chain back to the grey ancestor.
                    cycle = [successor]
                    while vertex != successor:
                        cycle.append(vertex)
                        vertex = parent[vertex]
                    cycle.reverse()
                    return cycle, visited
            else:
                colour[vertex] = BLACK
                stack.pop()
    return None, visited


def cycle_and_escape_edges(graph: IdGraph[V], ranks: Sequence[int]
                           ) -> Tuple[List[Tuple[V, V]], List[Tuple[V, V]]]:
    """:func:`find_cycle_dfs`'s cycle, as its edges, and
    :func:`edges_on_every_cycle` on ids (both empty when acyclic).

    ``ranks[i]`` orders vertex ``i`` as its ``repr`` does
    (:class:`ReprRanks`), so the results equal those of the two functions
    on the ``DirectedGraph`` whose vertices come in ``graph.roots`` order.
    """
    key = ranks.__getitem__
    successors = [sorted(row, key=key) if len(row) > 1 else row
                  for row in graph.successors]
    cycle, _ = _dfs(graph.roots, successors)
    if cycle is None:
        return [], []
    vertices = graph.vertices
    core = list(zip(cycle, cycle[1:] + cycle[:1]))
    escape = [(vertices[core[position][0]], vertices[core[position][1]])
              for position in _breaking_edges(graph.roots, successors, core)]
    return ([(vertices[source], vertices[target]) for source, target in core],
            sorted(escape, key=_edge_text))


def edges_on_every_cycle(graph: DirectedGraph[V],
                         cycle: Sequence[Tuple[V, V]]) -> List[Tuple[V, V]]:
    """The edges of ``cycle`` whose removal alone leaves ``graph`` acyclic.

    Those are exactly the edges common to all cycles of ``graph``, so the
    result does not depend on which cycle a search returned.  The id graph
    is built once; each edge is then one DFS with that edge skipped (an
    edge absent from ``graph`` skips nothing).  Sorted by their
    ``"source -> target"`` text.
    """
    if not cycle:
        return []
    _, ids, successors = _ranked_ids(graph)
    found = _breaking_edges(
        ids.values(), successors,
        [(ids.get(source), ids.get(target)) for source, target in cycle])
    return sorted([cycle[position] for position in found], key=_edge_text)


def _breaking_edges(roots: Iterable[int], successors: List[Sequence[int]],
                    edges: Sequence[Tuple[Optional[int], Optional[int]]]
                    ) -> List[int]:
    """The positions of the id ``edges`` whose removal alone leaves the
    graph acyclic: one DFS per edge, with that edge skipped (an edge with
    no source id skips nothing)."""
    found = []
    for position, (source, target) in enumerate(edges):
        kept = successors[source] if source is not None else ()
        if target in kept:
            successors[source] = [vertex for vertex in kept
                                  if vertex != target]
        if _dfs(roots, successors)[0] is None:
            found.append(position)
        if target in kept:
            successors[source] = kept
    return found


def _edge_text(edge: Tuple) -> str:
    return f"{edge[0]} -> {edge[1]}"


def has_cycle(graph: DirectedGraph[V]) -> bool:
    return not find_cycle_dfs(graph).acyclic


def is_acyclic(graph: DirectedGraph[V]) -> bool:
    return find_cycle_dfs(graph).acyclic


# ---------------------------------------------------------------------------
# Tarjan strongly connected components
# ---------------------------------------------------------------------------

def strongly_connected_components(graph: DirectedGraph[V]) -> List[List[V]]:
    """Tarjan's algorithm, implemented iteratively.

    A graph is acyclic iff every SCC is a singleton without a self-loop --
    the check used by the Taktak et al. deadlock-detection tool discussed in
    the paper's related work.
    """
    index_counter = 0
    index: Dict[V, int] = {}
    lowlink: Dict[V, int] = {}
    on_stack: Dict[V, bool] = {}
    stack: List[V] = []
    components: List[List[V]] = []

    for root in graph.vertices:
        if root in index:
            continue
        work: List[Tuple[V, List[V], int]] = [
            (root, sorted(graph.successors(root), key=repr), 0)]
        while work:
            vertex, successors, pointer = work.pop()
            if pointer == 0:
                index[vertex] = index_counter
                lowlink[vertex] = index_counter
                index_counter += 1
                stack.append(vertex)
                on_stack[vertex] = True
            recurse = False
            while pointer < len(successors):
                successor = successors[pointer]
                pointer += 1
                if successor not in index:
                    work.append((vertex, successors, pointer))
                    work.append((successor,
                                 sorted(graph.successors(successor), key=repr),
                                 0))
                    recurse = True
                    break
                if on_stack.get(successor, False):
                    lowlink[vertex] = min(lowlink[vertex], index[successor])
            if recurse:
                continue
            if lowlink[vertex] == index[vertex]:
                component: List[V] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == vertex:
                        break
                components.append(component)
            if work:
                parent_vertex = work[-1][0]
                lowlink[parent_vertex] = min(lowlink[parent_vertex],
                                             lowlink[vertex])
    return components


def is_acyclic_by_scc(graph: DirectedGraph[V]) -> bool:
    """Acyclicity via SCC decomposition."""
    for component in strongly_connected_components(graph):
        if len(component) > 1:
            return False
        vertex = component[0]
        if graph.has_edge(vertex, vertex):
            return False
    return True


# ---------------------------------------------------------------------------
# Kahn topological sort
# ---------------------------------------------------------------------------

def topological_sort(graph: DirectedGraph[V]) -> Optional[List[V]]:
    """Kahn's algorithm.  Returns ``None`` when the graph has a cycle."""
    order, residue = kahn_peel(graph.in_degrees(), graph._successors)
    return None if residue else order


def kahn_peel(in_degree: Dict[V, int],
              successors: Mapping[V, Iterable[V]]
              ) -> Tuple[List[V], List[V]]:
    """Kahn's loop: peel in-degree-0 vertices until none is left.

    ``in_degree`` counts every vertex's predecessors and is consumed.
    Returns the peel order and the residue, the vertices never peeled.
    The graph is acyclic iff the residue is empty; otherwise every
    residue vertex keeps a predecessor inside the residue.
    """
    ready = [vertex for vertex, degree in in_degree.items() if degree == 0]
    order: List[V] = []
    while ready:
        vertex = ready.pop()
        order.append(vertex)
        for successor in successors[vertex]:
            in_degree[successor] -= 1
            if in_degree[successor] == 0:
                ready.append(successor)
    return order, [vertex for vertex, degree in in_degree.items() if degree]


def is_acyclic_by_toposort(graph: DirectedGraph[V]) -> bool:
    return topological_sort(graph) is not None


def is_acyclic_by_networkx(graph: DirectedGraph[V]) -> bool:
    """Cross-check using networkx (an external, independent implementation)."""
    import networkx as nx

    return nx.is_directed_acyclic_graph(graph.to_networkx())


def longest_path_length(graph: DirectedGraph[V]) -> int:
    """Length (in edges) of the longest path of an *acyclic* graph.

    Used by the flow analysis: the longest dependency chain of the XY
    dependency graph grows linearly with the mesh diameter.
    Raises ``ValueError`` if the graph has a cycle.
    """
    order = topological_sort(graph)
    if order is None:
        raise ValueError("longest_path_length requires an acyclic graph")
    distance: Dict[V, int] = {vertex: 0 for vertex in graph.vertices}
    for vertex in order:
        for successor in graph.successors(vertex):
            distance[successor] = max(distance[successor],
                                      distance[vertex] + 1)
    return max(distance.values()) if distance else 0


def check_rank_certificate(graph: DirectedGraph[V],
                           rank: Mapping[V, Tuple[int, ...]],
                           sinks: Optional[Set[V]] = None) -> List[Tuple[V, V]]:
    """Check a rank certificate for acyclicity.

    A *rank certificate* assigns every vertex a tuple such that every edge
    strictly decreases the rank (edges into declared ``sinks`` are exempt
    because sinks have no outgoing edges and therefore cannot lie on a
    cycle... but note a sink *with* outgoing edges would invalidate the
    exemption, so sinks are also checked to have out-degree 0).  Returns the
    list of violating edges (empty = certificate valid).
    """
    sinks = sinks or set()
    violations: List[Tuple[V, V]] = []
    for sink in sinks:
        if graph.out_degree(sink) > 0:
            violations.append((sink, sink))
    for source, target in graph.edges():
        if target in sinks:
            continue
        if not (rank[target] < rank[source]):
            violations.append((source, target))
    return violations
