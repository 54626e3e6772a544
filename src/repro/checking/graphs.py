"""Directed-graph algorithms used to check dependency-graph acyclicity.

The paper notes (Section VII) that for a fixed-size network "a simple search
for a cycle suffices.  This search can be performed in linear time".  This
module provides that search -- an iterative DFS over dense ids, the one
decider behind every verdict -- and a checker for its answers.  The search
hands each answer over with a certificate: a numbering that every edge
descends (acyclic), a cycle (cyclic) and, for the escape search, a
numbering or a cycle per cycle edge.  :func:`check_certificate` re-checks
it in linear time and shares no code with the search (McConnell,
Mehlhorn, Näher & Schweitzer, "Certifying algorithms", 2011), so a verdict
rests on the small checker, not on the search.  :func:`kahn_peel` is the
loop of the separate Kahn-peel decider behind ``--cross-check``.
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

    def to_ids(self, vertices: Optional[Sequence[V]] = None) -> "IdGraph[V]":
        """The graph over dense ids: vertex ``i`` is ``vertices[i]``
        (``self.vertices`` by default), each row in insertion order."""
        vertices = self.vertices if vertices is None else vertices
        ids = {vertex: i for i, vertex in enumerate(vertices)}
        return IdGraph(vertices, [[ids[target] for target in
                                   self._successors[vertex]]
                                  for vertex in vertices])


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


# ---------------------------------------------------------------------------
# DFS cycle search: the decider
# ---------------------------------------------------------------------------

def find_cycle_dfs(graph: DirectedGraph[V]) -> CycleSearchResult[V]:
    """Find a cycle by iterative depth-first search (white/grey/black).

    Roots are taken in ``graph.vertices`` order and successors in ``repr``
    order, so the search -- and the cycle it returns -- depends only on
    the graph, not on hash order.  Returns the cycle as a vertex list
    (without repeating the first vertex) if one exists.  The answer is
    certified: :func:`check_certificate` re-checks the search's numbering
    or cycle over ``graph.edges()``, and a rejection raises
    :class:`CertificateError`.
    """
    by_rank, ids, successors = _ranked_ids(graph)
    cycle, numbering, visited = _dfs(ids.values(), successors)
    rejected = check_certificate(graph.to_ids(by_rank).successors,
                                 Certificate(cycle, numbering), by_rank,
                                 with_escapes=False)
    if rejected is not None:
        raise CertificateError(rejected)
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
         ) -> Tuple[Optional[List[int]], Optional[List[int]], int]:
    """White/grey/black DFS over dense ids: ``(cycle, numbering, visited)``.

    Exactly one of ``cycle`` and ``numbering`` is ``None``.  A cycle lists
    its ids; the numbering is the post-order, so every edge leads to a
    lower number (ids no root reaches keep -1).
    """
    WHITE, GREY, BLACK = 0, 1, 2
    colour = bytearray(len(successors))
    parent = [-1] * len(successors)
    numbering = [-1] * len(successors)
    finished = 0
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
                    return cycle, None, visited
            else:
                colour[vertex] = BLACK
                numbering[vertex] = finished
                finished += 1
                stack.pop()
    return None, numbering, visited


def cycle_and_escape_edges(graph: IdGraph[V], ranks: Sequence[int]
                           ) -> Tuple[List[Tuple[V, V]], List[Tuple[V, V]],
                                      Certificate]:
    """:func:`find_cycle_dfs`'s cycle, as its edges, and the escape
    edges, those of the cycle whose removal alone leaves the graph acyclic
    (both empty when acyclic), with the search's :class:`Certificate` for
    :func:`check_certificate`.

    The escape edges are exactly the edges common to all cycles, so they
    do not depend on which cycle the search found; they are sorted by
    their ``"source -> target"`` text.  ``ranks[i]`` orders vertex ``i``
    as its ``repr`` does (:class:`ReprRanks`), so the cycle equals
    :func:`find_cycle_dfs`'s on the ``DirectedGraph`` whose vertices come
    in ``graph.roots`` order.
    """
    key = ranks.__getitem__
    successors = [sorted(row, key=key) if len(row) > 1 else row
                  for row in graph.successors]
    cycle, numbering, _ = _dfs(graph.roots, successors)
    if cycle is None:
        return [], [], Certificate(numbering=numbering)
    vertices = graph.vertices
    core = list(zip(cycle, cycle[1:] + cycle[:1]))
    numberings, detours = _breaking_edges(graph.roots, successors, core)
    certificate = Certificate(
        cycle, escapes={core[at]: found for at, found in numberings.items()},
        detours={core[at]: found for at, found in detours.items()})
    escape = [(vertices[source], vertices[target])
              for source, target in certificate.escapes]
    return ([(vertices[source], vertices[target]) for source, target in core],
            sorted(escape, key=_edge_text), certificate)


def _breaking_edges(roots: Iterable[int], successors: List[Sequence[int]],
                    edges: Sequence[Tuple[int, int]]
                    ) -> Tuple[Dict[int, List[int]], Dict[int, List[int]]]:
    """Split the positions of the id ``edges`` by whether removing that
    edge alone leaves the graph acyclic.

    Returns, for each position that does, the numbering of the graph
    without its edge, and for each other position a cycle that avoids its
    edge.  Each DFS skips one candidate edge; a cycle it finds avoids
    every candidate not on it, so it rules all of those out at once.
    """
    numberings: Dict[int, List[int]] = {}
    detours: Dict[int, List[int]] = {}
    for position, (source, target) in enumerate(edges):
        if position in detours:
            continue
        kept = successors[source]
        successors[source] = [vertex for vertex in kept if vertex != target]
        cycle, numbering, _ = _dfs(roots, successors)
        successors[source] = kept
        if cycle is None:
            numberings[position] = numbering
            continue
        on_cycle = set(zip(cycle, cycle[1:] + cycle[:1]))
        for later in range(position, len(edges)):
            if edges[later] not in on_cycle:
                detours.setdefault(later, cycle)
    return numberings, detours


def _edge_text(edge: Tuple) -> str:
    return f"{edge[0]} -> {edge[1]}"


def kahn_peel(in_degree: Dict[V, int],
              successors: Mapping[V, Iterable[V]]
              ) -> Tuple[List[V], List[V]]:
    """Kahn's loop: peel in-degree-0 vertices until none is left.

    ``in_degree`` counts every vertex's predecessors and is consumed.
    Returns the peel order and the residue, the vertices never peeled.
    The graph is acyclic iff the residue is empty; otherwise every
    residue vertex keeps a predecessor inside the residue.  It decides the
    queries of :class:`repro.core.deadlock.DeadlockQuerySession`, the
    independent decider behind ``--cross-check``.
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


# ---------------------------------------------------------------------------
# The checker: re-checks a search's certificate, sharing no code with it
# ---------------------------------------------------------------------------

class CertificateError(ValueError):
    """A search answer whose certificate :func:`check_certificate`
    rejected; the message names the failed check."""


@dataclass
class Certificate:
    """The evidence for one search answer over dense ids.

    Acyclic: ``numbering``, a number per id that every edge lowers.
    Cyclic: ``cycle``, the ids of one cycle in order; ``escapes`` maps each
    cycle edge whose removal alone leaves the graph acyclic to a numbering
    of the graph without it, and ``detours`` maps every other cycle edge
    to a cycle that avoids it.  ``escapes`` holds the escape edges.
    """

    cycle: Optional[List[int]] = None
    numbering: Optional[Sequence[int]] = None
    escapes: Dict[Tuple[int, int], Sequence[int]] = field(
        default_factory=dict)
    detours: Dict[Tuple[int, int], List[int]] = field(default_factory=dict)


def check_rank_certificate(successors: Sequence[Sequence[int]],
                           rank: Sequence,
                           skip: Optional[Tuple[int, int]] = None,
                           ) -> List[Tuple[int, int]]:
    """The edges ``p -> q`` (``skip`` aside) along which ``rank`` does
    not strictly decrease.

    An empty list proves the graph without ``skip`` acyclic: every edge
    lowers the rank, so no path comes back to where it started.  Ranks
    need only compare: numbers, or tuples compared lexicographically.
    """
    return [(p, q) for p, row in enumerate(successors) for q in row
            if not rank[q] < rank[p] and (p, q) != skip]


def check_certificate(successors: Sequence[Sequence[int]],
                      certificate: Certificate,
                      names: Optional[Sequence] = None,
                      with_escapes: bool = True) -> Optional[str]:
    """Re-check a search answer over id successor lists in O(V + E) per
    numbering: ``None`` if the certificate holds, else the failed check.

    * acyclic: every edge lowers ``numbering``;
    * cyclic: every edge of ``cycle`` is in the graph; unless
      ``with_escapes`` is off, the cycle edges also split exactly into
      ``escapes`` and ``detours``, every escape edge's numbering holds on
      the graph without that edge and every detour is a cycle of the
      graph that avoids its edge.

    Then the verdict, the cycle and the escape edges (exactly the cycle
    edges whose removal alone leaves the graph acyclic) are proved.
    ``names[i]`` labels id ``i`` in the message.
    """
    label = range(len(successors)) if names is None else names

    def edge(pair: Tuple[int, int]) -> str:
        return f"{label[pair[0]]} -> {label[pair[1]]}"

    def not_a_cycle(ids: List[int], avoid=None) -> Optional[str]:
        if not ids:
            return "it is empty"
        for pair in zip(ids, ids[1:] + ids[:1]):
            if pair == avoid:
                return f"it uses {edge(pair)}"
            if pair[1] not in successors[pair[0]]:
                return f"edge {edge(pair)} is not in the graph"
        return None

    if certificate.cycle is None:
        if certificate.numbering is None:
            return "numbering: none given"
        ascents = check_rank_certificate(successors, certificate.numbering)
        if ascents:
            return f"numbering: edge {edge(ascents[0])} does not descend"
        return None
    problem = not_a_cycle(certificate.cycle)
    if problem is not None:
        return f"cycle: {problem}"
    if not with_escapes:
        return None
    cycle = certificate.cycle
    cycle_edges = set(zip(cycle, cycle[1:] + cycle[:1]))
    escapes, detours = certificate.escapes, certificate.detours
    for pair in sorted(cycle_edges | escapes.keys() | detours.keys()):
        if pair not in cycle_edges:
            return f"escape split: {edge(pair)} is not a cycle edge"
        if (pair in escapes) == (pair in detours):
            return (f"escape split: cycle edge {edge(pair)} needs one "
                    f"numbering or one detour")
    for pair, numbering in escapes.items():
        ascents = check_rank_certificate(successors, numbering, skip=pair)
        if ascents:
            return (f"escape edge {edge(pair)}: edge {edge(ascents[0])} "
                    f"does not descend")
    for pair, detour in detours.items():
        problem = not_a_cycle(detour, avoid=pair)
        if problem is not None:
            return f"detour of {edge(pair)}: {problem}"
    return None
