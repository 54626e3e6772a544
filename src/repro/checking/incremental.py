"""Incremental verification sessions on top of the CDCL solver.

The modules of :mod:`repro.checking` historically built one CNF per query
and threw solver and formula away afterwards.  This module provides the
*encode once, query many times* layer used by the deadlock machinery:

* :class:`IncrementalSession` couples a :class:`~repro.checking.cnf.CNF`,
  a :class:`~repro.checking.tseitin.TseitinEncoder` and one live
  :class:`~repro.checking.sat.IncrementalSatSolver`.  Expressions can be
  asserted permanently or guarded by named *selector* variables; queries
  are solved under assumptions over those selectors, and UNSAT answers come
  with a core mapped back to selector names.

* :class:`AcyclicityOracle` instantiates the session for the paper's
  central decision problem: given a fixed vertex set and a fixed universe
  of candidate dependency edges, decide *for any subset of the edges*
  whether the subgraph is acyclic.  The topological-numbering constraint of
  each edge is encoded once, guarded by a per-edge selector variable; each
  query then costs one ``solve`` call under assumptions instead of a fresh
  CNF construction.  This is what obligation (C-3)'s quantifier
  ``∀ P' ⊆ P . ¬ cycle_dep(P')`` looks like operationally, and what makes
  escape-edge analysis (``which single edge removals break all cycles?``)
  and routing portfolios (``same topology, many routing functions``)
  cheap.
"""

from __future__ import annotations

import math
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from repro.checking.bool_expr import BoolExpr, FALSE
from repro.checking.cnf import CNF, Literal
from repro.checking.graphs import DirectedGraph
from repro.checking.sat import IncrementalSatSolver, SatResult
from repro.checking.tseitin import TseitinEncoder

V = TypeVar("V", bound=Hashable)


class IncrementalSession:
    """A CNF, its Tseitin encoder and one live solver, kept in sync.

    Usage::

        session = IncrementalSession()
        session.assert_expr(some_invariant)            # permanent
        fast = session.guard("fast-mode", mode_expr)   # selectable
        session.solve(["fast-mode"])                   # query with guard on
        session.solve([-fast])                         # ... and with it off
    """

    def __init__(self, trace=None) -> None:
        self.cnf = CNF()
        self.encoder = TseitinEncoder(self.cnf)
        #: Optional :class:`repro.core.trace.TraceWriter`, shared with the
        #: solver so session-level spans and solver events interleave in
        #: one stream.
        self.trace = trace
        self.solver = IncrementalSatSolver(trace=trace)
        self._loaded_clauses = 0
        self._selectors: Dict[str, Literal] = {}

    # -- encoding -----------------------------------------------------------------
    def _sync(self) -> None:
        self.solver.ensure_vars(self.cnf.num_vars)
        loaded = self._loaded_clauses
        self._loaded_clauses = self.cnf.num_clauses
        self.solver.add_clauses(self.cnf.iter_clauses(start=loaded))

    def encode(self, expression: BoolExpr) -> Literal:
        """Tseitin-encode an expression, returning its literal."""
        literal = self.encoder.encode(expression)
        self._sync()
        return literal

    def assert_expr(self, expression: BoolExpr) -> None:
        """Permanently assert an expression."""
        self.encoder.assert_expr(expression)
        self._sync()

    def add_clause(self, literals: Iterable[Literal]) -> None:
        self.cnf.add_clause(literals)
        self._sync()

    def selector(self, name: str, sync: bool = True) -> Literal:
        """The (positive literal of the) named selector variable.

        ``sync=False`` defers the solver sync to the caller (bulk encoding
        paths).
        """
        if name not in self._selectors:
            self._selectors[name] = self.cnf.var(f"sel::{name}")
        if sync:
            self._sync()
        return self._selectors[name]

    def guard(self, name: str, expression: BoolExpr) -> Literal:
        """Assert ``selector(name) -> expression`` and return the selector.

        The expression only constrains queries whose assumptions include the
        (positive) selector literal; with the selector unset or negated the
        expression is inert.
        """
        selector = self.selector(name)
        literal = self.encoder.encode(expression)
        self.cnf.add_clause((-selector, literal))
        self._sync()
        return selector

    # -- querying -----------------------------------------------------------------
    def _to_literal(self, assumption) -> Literal:
        if isinstance(assumption, str):
            return self.selector(assumption)
        return int(assumption)

    def solve(self, assumptions: Iterable = ()) -> SatResult:
        """Solve under assumptions given as literals or selector names."""
        self._sync()
        return self.solver.solve([self._to_literal(a) for a in assumptions])

    def set_interrupt(self, callback) -> None:
        """Install (or clear with ``None``) a cooperative solve budget.

        Forwarded to
        :meth:`~repro.checking.sat.IncrementalSatSolver.set_interrupt`:
        once ``callback`` returns a truthy reason, queries raise
        :class:`~repro.core.errors.SolverTimeout` while leaving the
        session's formula, learned clauses and selector map intact.
        """
        self.solver.set_interrupt(callback)

    def last_core_names(self) -> Optional[List[str]]:
        """The selector names in the last UNSAT core (non-selector literals
        are reported as their CNF names or literal values)."""
        core = self.solver.last_core()
        if core is None:
            return None
        names: List[str] = []
        for literal in core:
            name = self.cnf.name_of(literal)
            if name is not None and name.startswith("sel::"):
                names.append(name[len("sel::"):])
            else:
                names.append(name if name is not None else str(literal))
        return names


class AcyclicityOracle:
    """Incremental acyclicity queries over subsets of a fixed edge universe.

    Built once from a directed graph (or an explicit vertex/edge universe),
    the oracle answers ``is this subset of the edges acyclic?`` with one
    incremental solve per query.  The encoding is the topological-numbering
    one of :mod:`repro.checking.encodings`: every vertex gets a binary
    counter, every edge ``u -> v`` a selector implying
    ``number(v) < number(u)``; a subset is acyclic iff the selectors of its
    edges are simultaneously satisfiable.
    """

    def __init__(self, graph: DirectedGraph[V], trace=None) -> None:
        self._session = IncrementalSession(trace=trace)
        self._vertices = sorted(graph.vertices, key=repr)
        self._vertex_index = {vertex: index
                              for index, vertex in enumerate(self._vertices)}
        self._width = max(1, math.ceil(
            math.log2(max(len(self._vertices), 2))))
        self._edge_selector: Dict[Tuple[V, V], Literal] = {}
        self._edges: List[Tuple[V, V]] = []
        self._selector_edge: Dict[Literal, Tuple[V, V]] = {}
        # Per-vertex counter-bit variables, resolved lazily on the first
        # incident edge and reused for every later one (the name->variable
        # probes are a measurable share of bulk construction).
        self._bit_literals: Dict[int, List[Literal]] = {}
        # Edges encoded since the last emitted ``edge_batch`` event; the
        # batch is flushed lazily before the next traced query so bulk
        # universe growth costs one event, not one event per edge.
        self._pending_edges = 0
        self.add_edges(graph.edges())
        self.stats_queries = 0

    # -- construction --------------------------------------------------------------
    def add_edge(self, source: V, target: V) -> None:
        """Add an edge to the universe (idempotent)."""
        if self._encode_edge(source, target):
            self._session._sync()

    def add_edges(self, edges: Iterable[Tuple[V, V]]) -> None:
        """Bulk :meth:`add_edge`: encode every new edge, sync once.

        Construction-heavy workloads (a fresh oracle over hundreds of
        edges) spend measurable time in the per-edge CNF->solver sync;
        deferring it to one batch sync keeps the clause stream identical
        while paying the bookkeeping once.
        """
        added = False
        for source, target in edges:
            added = self._encode_edge(source, target) or added
        if added:
            self._session._sync()

    def _encode_edge(self, source: V, target: V) -> bool:
        """Encode one edge into the CNF (no solver sync); True if new."""
        # Imported here: this module is re-exported through repro.checking,
        # so a module-level import would be circular through __init__.
        from repro.checking.encodings import (
            bit_name, encode_numbering_constraint,
            encode_numbering_constraint_bits)

        edge = (source, target)
        if edge in self._edge_selector:
            return False
        if source not in self._vertex_index or target not in self._vertex_index:
            raise ValueError(
                f"edge {source!r} -> {target!r} leaves the oracle's vertex set")
        name = f"edge {len(self._edges)}"
        selector = self._session.selector(name, sync=False)
        if source == target:
            # A self-loop is a cycle on its own: selecting it is unsatisfiable.
            self._session.cnf.add_clause((-selector,))
        else:
            # Direct clause generation (no expression tree): emits the
            # same stream the Tseitin walk would, straight into the CNF;
            # the batch sync loads it into the solver arena in order.
            # A vertex's first incident edge takes the interleaved path
            # (bit variables created alongside the ladder helpers) so the
            # variable numbering -- and with it the solver's deterministic
            # search -- is byte-identical to the uncached encoding; later
            # edges reuse the cached bit lists.
            cnf = self._session.cnf
            bits = self._bit_literals
            width = self._width
            target_index = self._vertex_index[target]
            source_index = self._vertex_index[source]
            target_bits = bits.get(target_index)
            source_bits = bits.get(source_index)
            if target_bits is None or source_bits is None:
                literal = encode_numbering_constraint(
                    self._session.encoder, target_index, source_index,
                    width)
                for index in (target_index, source_index):
                    if index not in bits:
                        bits[index] = [cnf.var(bit_name(index, bit))
                                       for bit in range(width)]
            else:
                literal = encode_numbering_constraint_bits(
                    cnf, target_bits, source_bits)
            cnf.add_clause((-selector, literal))
        self._edge_selector[edge] = selector
        self._selector_edge[selector] = edge
        self._edges.append(edge)
        self._pending_edges += 1
        return True

    def _flush_edge_batch(self) -> None:
        """Emit the pending ``edge_batch`` span (traced sessions only)."""
        trace = self._session.trace
        if trace is not None and self._pending_edges:
            trace.emit("edge_batch", edges=self._pending_edges,
                       total=len(self._edges))
        self._pending_edges = 0

    # -- inspection ----------------------------------------------------------------
    @property
    def vertices(self) -> List[V]:
        return list(self._vertices)

    @property
    def edges(self) -> List[Tuple[V, V]]:
        """The full edge universe, in insertion order."""
        return list(self._edges)

    @property
    def solver_stats(self) -> Dict[str, int]:
        return self._session.solver.stats

    def set_interrupt(self, callback) -> None:
        """Install (or clear) a cooperative budget on the oracle's solver
        (see :meth:`IncrementalSession.set_interrupt`)."""
        self._session.set_interrupt(callback)

    def has_edge(self, source: V, target: V) -> bool:
        return (source, target) in self._edge_selector

    # -- queries -------------------------------------------------------------------
    def _assumptions_for(self,
                         edges: Optional[Iterable[Tuple[V, V]]]
                         ) -> List[Literal]:
        if edges is None:
            return [self._edge_selector[edge] for edge in self._edges]
        assumptions = []
        for edge in edges:
            selector = self._edge_selector.get(tuple(edge))
            if selector is None:
                raise KeyError(f"edge {edge!r} is not in the oracle universe")
            assumptions.append(selector)
        return assumptions

    def is_acyclic(self,
                   edges: Optional[Iterable[Tuple[V, V]]] = None) -> bool:
        """Is the subgraph spanned by ``edges`` (default: all) acyclic?"""
        self.stats_queries += 1
        assumptions = self._assumptions_for(edges)
        trace = self._session.trace
        if trace is not None:
            self._flush_edge_batch()
        result = self._session.solve(assumptions)
        if trace is not None:
            trace.emit("oracle_query", query=self.stats_queries,
                       edges=len(assumptions), sat=result.satisfiable)
        return result.satisfiable

    def is_acyclic_without(self,
                           removed: Iterable[Tuple[V, V]]) -> bool:
        """Acyclicity of the full universe minus the given edges."""
        removed_set = {tuple(edge) for edge in removed}
        return self.is_acyclic(edge for edge in self._edges
                               if edge not in removed_set)

    def is_acyclic_restricted_to(self, vertices: Iterable[V]) -> bool:
        """Acyclicity of the subgraph induced by a vertex subset.

        This is obligation (C-3)'s ``∀ P' ⊆ P`` instantiated at one ``P'``
        -- by monotonicity the full-graph query subsumes it, but the
        restricted query is what the paper's statement literally asks.
        """
        subset = set(vertices)
        return self.is_acyclic(
            edge for edge in self._edges
            if edge[0] in subset and edge[1] in subset)

    def edges_where(self, predicate) -> List[Tuple[V, V]]:
        """The universe edges whose endpoints both satisfy ``predicate``.

        The vertex-predicate counterpart of an explicit vertex subset; used
        by the VC-granular deadlock queries to restrict the universe to one
        VC class (e.g. the escape class) without materialising the class's
        vertex set.
        """
        return [edge for edge in self._edges
                if predicate(edge[0]) and predicate(edge[1])]

    def is_acyclic_where(self, predicate) -> bool:
        """Acyclicity of the subgraph induced by a vertex predicate."""
        return self.is_acyclic(self.edges_where(predicate))

    def cycle_core(self,
                   edges: Optional[Iterable[Tuple[V, V]]] = None
                   ) -> Optional[List[Tuple[V, V]]]:
        """A subset of ``edges`` that already contains a cycle, or ``None``.

        When the queried subgraph is cyclic, the solver's UNSAT core over
        the edge selectors is exactly such a subset (typically close to one
        concrete cycle).
        """
        if self.is_acyclic(edges):
            return None
        core = self._session.solver.last_core()
        if core is None:
            return None
        return [self._selector_edge[literal] for literal in core
                if literal in self._selector_edge]

    def numbering(self,
                  edges: Optional[Iterable[Tuple[V, V]]] = None
                  ) -> Dict[V, int]:
        """A topological numbering witnessing acyclicity (raises if cyclic)."""
        from repro.checking.encodings import bit_name

        self.stats_queries += 1
        assumptions = self._assumptions_for(edges)
        trace = self._session.trace
        if trace is not None:
            self._flush_edge_batch()
        result = self._session.solve(assumptions)
        if trace is not None:
            trace.emit("oracle_query", query=self.stats_queries,
                       edges=len(assumptions), sat=result.satisfiable)
        if not result.satisfiable:
            raise ValueError(
                "graph has a cycle; no topological numbering exists")
        named = result.named_model(self._session.cnf)
        numbering: Dict[V, int] = {}
        for vertex, index in self._vertex_index.items():
            value = 0
            for bit in range(self._width):
                if named.get(bit_name(index, bit), False):
                    value |= 1 << bit
            numbering[vertex] = value
        return numbering

    def critical_edges(self,
                       candidates: Optional[Iterable[Tuple[V, V]]] = None
                       ) -> List[Tuple[V, V]]:
        """Edges whose individual removal makes the full universe acyclic.

        This is the escape-channel question: across ``n`` candidate edges
        the oracle answers with ``n`` incremental solves on the same
        learned-clause database, instead of ``n`` CNF constructions.
        Returns ``[]`` when the universe is already acyclic (nothing to
        escape from) or when no single removal suffices.
        """
        if self.is_acyclic():
            return []
        pool = list(candidates) if candidates is not None else list(self._edges)
        return [edge for edge in pool
                if self.is_acyclic_without([tuple(edge)])]
