"""SAT encodings of graph properties.

The main encoding is *acyclicity via topological numbering*: a directed graph
is acyclic iff its vertices can be numbered such that every edge goes from a
higher-numbered vertex to a lower-numbered one.  Each vertex gets a binary
counter of ``ceil(log2 |V|)`` bits and every edge contributes the constraint
``number(target) < number(source)``; the resulting CNF is satisfiable iff the
graph is acyclic.  This gives an independent, solver-based discharge of
obligation (C-3) alongside the graph-algorithmic checks of
:mod:`repro.checking.graphs`.

Repeated acyclicity queries over subsets of one edge universe (escape
analysis, routing portfolios) go through
:class:`repro.core.deadlock.DeadlockQuerySession`, which encodes each edge
with the same comparator ladder, behind a selector variable, once and
answers every query with an incremental solve.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Tuple, TypeVar

from repro.checking.cnf import CNF
from repro.checking.graphs import DirectedGraph
from repro.checking.sat import solve_cnf

V = TypeVar("V", bound=Hashable)


def encode_numbering_constraint(cnf: CNF, bits: Dict[int, List[int]],
                                target_index: int, source_index: int,
                                width: int) -> int:
    """Direct CNF generation of ``number(target) < number(source)``.

    ``bits`` maps a vertex index to its counter's bit variables
    (little-endian); a vertex seen for the first time gets its ``width``
    bits here, each created right before the ladder helper of its bit
    position.  That interleaving fixes the variable numbering -- and the
    solver's index-based tie-breaks turn a different numbering into a
    different (measured: sometimes far worse) search -- so callers must
    share one ``bits`` map per CNF and encode edges in a fixed order.

    Returns a literal ``lt`` such that asserting ``lt`` (directly or
    behind a selector, as :class:`repro.core.deadlock.DeadlockQuerySession`
    does) forces the strict comparison, and such that ``lt`` is assertable
    whenever the comparison can hold.  The comparison is the *one-sided
    comparator ladder*: one fresh variable and at most three clauses per
    bit::

        lt_k -> (~a_k | b_k)            no bit above k decides wrongly
        lt_k -> (~a_k | lt_{k-1})       a_k = 1 forces b_k = 1: strictness
        lt_k -> ( b_k | lt_{k-1})       comes from a lower bit
        lt_0 -> ~a_0,  lt_0 -> b_0      base: strict at bit 0

    One-sided (implication-only) clauses suffice because every consumer
    uses the literal *positively*: the session asserts ``selector -> lt``
    and never ``~lt``.  ``lt_root = true`` forces
    ``number(target) < number(source)`` in every model (induction over
    the ladder), and any assignment with the comparison true extends to
    the ladder -- so selector subsets are satisfiable exactly as with a
    two-sided encoding, with ~4x fewer helper variables and clauses per
    edge.  Semantic equivalence against brute-force integer comparison is
    pinned by ``tests/test_clause_management.py``.
    """
    append = cnf.clauses.append
    new_var = cnf.new_var
    target_bits = bits.get(target_index)
    source_bits = bits.get(source_index)
    fresh_target = target_bits is None
    fresh_source = source_bits is None
    if fresh_target:
        target_bits = bits[target_index] = []
    if fresh_source:
        source_bits = bits[source_index] = []
    result = 0
    # Least significant bit first; bit 0 is the base of the ladder.
    for bit in range(width):
        if fresh_target:
            target_bits.append(new_var())
        if fresh_source:
            source_bits.append(new_var())
        a = target_bits[bit]
        b = source_bits[bit]
        lt = new_var()
        if bit:
            append((-lt, -a, b))
            append((-lt, -a, result))
            append((-lt, b, result))
        else:
            append((-lt, -a))
            append((-lt, b))
        result = lt
    return result


def encode_acyclicity(graph: DirectedGraph[V]) -> Tuple[CNF, Dict[V, int]]:
    """Encode "``graph`` admits a topological numbering" as CNF.

    Returns the CNF and the mapping from vertex to the index of its
    counter.  The CNF is satisfiable iff the graph is acyclic; a model
    assigns every vertex a number such that every edge decreases the
    number.
    """
    vertices = sorted(graph.vertices, key=repr)
    vertex_index = {vertex: index for index, vertex in enumerate(vertices)}
    width = max(1, math.ceil(math.log2(max(len(vertices), 2))))

    cnf = CNF()
    bits: Dict[int, List[int]] = {}
    # Asserting the conjunction of the edge constraints is the same as
    # asserting each constraint literal as a unit.
    for source, target in graph.edges():
        if source == target:
            # A self-loop is a cycle: the empty clause makes the CNF UNSAT.
            cnf.add_clause(())
            continue
        cnf.add_unit(encode_numbering_constraint(
            cnf, bits, vertex_index[target], vertex_index[source], width))
    return cnf, vertex_index


def is_acyclic_by_sat(graph: DirectedGraph[V]) -> bool:
    """Decide acyclicity by SAT (satisfiable = acyclic)."""
    cnf, _ = encode_acyclicity(graph)
    return solve_cnf(cnf).satisfiable
