"""SAT encodings of graph properties.

The main encoding is *acyclicity via topological numbering*: a directed graph
is acyclic iff its vertices can be numbered such that every edge goes from a
higher-numbered vertex to a lower-numbered one.  Each vertex gets a binary
counter of ``ceil(log2 |V|)`` bits and every edge contributes the constraint
``number(target) < number(source)``; the resulting CNF is satisfiable iff the
graph is acyclic.  This gives an independent, solver-based discharge of
obligation (C-3) alongside the graph-algorithmic checks of
:mod:`repro.checking.graphs`.

A second encoding (:func:`encode_cycle_existence`) expresses the *existence*
of a cycle through a chosen vertex by unrolling reachability, so that an
UNSAT answer certifies that no cycle passes through that vertex.

For repeated acyclicity queries over subsets of one edge universe (escape
analysis, routing portfolios), use
:class:`repro.checking.incremental.AcyclicityOracle`, which shares this
module's bit-vector helpers but encodes each edge behind a selector variable
once and answers every query with an incremental solve.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Sequence, Tuple, TypeVar

from repro.checking.bool_expr import And, BoolExpr, FALSE, Iff, Not, Or, Var
from repro.checking.cnf import CNF
from repro.checking.graphs import DirectedGraph
from repro.checking.sat import SatSolver, solve_cnf
from repro.checking.tseitin import TseitinEncoder

V = TypeVar("V", bound=Hashable)


def bit_name(vertex_index: int, bit: int) -> str:
    """Name of bit ``bit`` of the numbering counter of vertex ``vertex_index``."""
    return f"n{vertex_index}_b{bit}"


def vertex_bits(vertex_index: int, width: int) -> List[Var]:
    """The numbering counter of a vertex, as a little-endian bit vector."""
    return [Var(bit_name(vertex_index, bit)) for bit in range(width)]


def less_than_bits(a_bits: Sequence[Var], b_bits: Sequence[Var]) -> BoolExpr:
    """``a < b`` over unsigned little-endian bit vectors of equal width.

    Recursive formulation, most significant bit first::

        a < b  <=>  (~a_k & b_k) | ((a_k <-> b_k) & a[0..k-1] < b[0..k-1])
    """
    assert len(a_bits) == len(b_bits)
    result: BoolExpr = FALSE
    for bit in range(len(a_bits)):
        a_bit = a_bits[bit]
        b_bit = b_bits[bit]
        result = Or(And(Not(a_bit), b_bit), And(Iff(a_bit, b_bit), result))
    return result


# Backwards-compatible private aliases.
_bit_name = bit_name
_vertex_bits = vertex_bits
_less_than = less_than_bits


def encode_numbering_constraint(encoder: TseitinEncoder,
                                target_index: int,
                                source_index: int,
                                width: int) -> int:
    """Direct CNF generation of ``number(target) < number(source)``.

    Returns a literal ``lt`` such that asserting ``lt`` (directly or
    behind a selector, as the acyclicity oracles do) forces the strict
    comparison, and such that ``lt`` is assertable whenever the
    comparison can hold.  This is the construction hot path of every
    oracle -- thousands of edges per session -- so instead of walking the
    :func:`less_than_bits` expression tree through the generic Tseitin
    encoder (4 helper variables and 13 clauses per bit, plus the
    structural-hash cache probes), the comparison is emitted as the
    standard *one-sided comparator ladder*: one fresh variable and at
    most three clauses per bit::

        lt_k -> (~a_k | b_k)            no bit above k decides wrongly
        lt_k -> (~a_k | lt_{k-1})       a_k = 1 forces b_k = 1: strictness
        lt_k -> ( b_k | lt_{k-1})       comes from a lower bit
        lt_0 -> ~a_0,  lt_0 -> b_0      base: strict at bit 0

    One-sided (implication-only) clauses suffice because every consumer
    uses the literal *positively*: the oracle asserts
    ``selector -> lt`` and never ``~lt``.  ``lt_root = true`` forces
    ``number(target) < number(source)`` in every model (induction over
    the ladder), and any assignment with the comparison true extends to
    the ladder -- so selector subsets are satisfiable exactly as with the
    two-sided encoding, while the solver carries ~4x fewer helper
    variables and clauses per edge.  Semantic equivalence against
    brute-force integer comparison is pinned by
    ``tests/test_clause_management.py``.
    """
    cnf = encoder.cnf
    append = cnf.clauses.append
    var = cnf.var
    new_var = cnf.new_var
    # Base: strict comparison at bit 0 alone.  Bit variables are resolved
    # (and on first touch *created*) interleaved with the ladder helpers --
    # the variable numbering is part of the deterministic-search contract,
    # so cached-bit callers may only take the ``_bits`` fast path once
    # both endpoints' bit variables already exist.
    a = var(bit_name(target_index, 0))
    b = var(bit_name(source_index, 0))
    result = new_var()
    append((-result, -a))
    append((-result, b))
    # Ladder up through the remaining bits, least significant first.
    for bit in range(1, width):
        a = var(bit_name(target_index, bit))
        b = var(bit_name(source_index, bit))
        lt = new_var()
        append((-lt, -a, b))
        append((-lt, -a, result))
        append((-lt, b, result))
        result = lt
    return result


def encode_numbering_constraint_bits(cnf: CNF,
                                     target_bits: Sequence[int],
                                     source_bits: Sequence[int]) -> int:
    """:func:`encode_numbering_constraint` over pre-resolved bit variables.

    The name->variable resolution (an f-string plus a dict probe per bit
    per edge) is the constant factor the construction loops pay |E| times
    over the same |V| counters; callers that encode many edges cache the
    per-vertex bit-variable lists once and emit every comparator ladder
    through this variant.

    Only call this once every passed bit variable **already exists** in
    the CNF: creating bit variables vertex-at-a-time instead of
    interleaved with the ladder helpers renumbers the formula, and the
    solver's index-based tie-breaks turn that into a different (measured:
    sometimes far worse) search.
    """
    append = cnf.clauses.append
    new_var = cnf.new_var
    # Base: strict comparison at bit 0 alone.
    a = target_bits[0]
    b = source_bits[0]
    result = new_var()
    append((-result, -a))
    append((-result, b))
    # Ladder up through the remaining bits, least significant first.
    for bit in range(1, len(target_bits)):
        a = target_bits[bit]
        b = source_bits[bit]
        lt = new_var()
        append((-lt, -a, b))
        append((-lt, -a, result))
        append((-lt, b, result))
        result = lt
    return result


def encode_acyclicity(graph: DirectedGraph[V]) -> Tuple[CNF, Dict[V, int]]:
    """Encode "``graph`` admits a topological numbering" as CNF.

    Returns the CNF and the mapping from vertex to its index (used to decode
    models back into an ordering).  The CNF is satisfiable iff the graph is
    acyclic; a model assigns every vertex a number such that every edge
    decreases the number.
    """
    vertices = sorted(graph.vertices, key=repr)
    vertex_index = {vertex: index for index, vertex in enumerate(vertices)}
    width = max(1, math.ceil(math.log2(max(len(vertices), 2))))

    encoder = TseitinEncoder()
    cnf = encoder.cnf
    # Per-vertex counter bits, cached after a vertex's first incident edge
    # creates them.  The first edge of a vertex goes through the
    # interleaved path so variable numbering (and therefore the solver's
    # search) is independent of the caching.
    bit_vars: Dict[int, List[int]] = {}
    # Asserting the conjunction of the edge constraints is the same as
    # asserting each constraint literal as a unit -- no And gadget needed.
    empty = True
    for source, target in graph.edges():
        empty = False
        if source == target:
            # A self-loop is a cycle; emit an unsatisfiable constraint.
            cnf.add_unit(-encoder.true_literal())
            continue
        target_index = vertex_index[target]
        source_index = vertex_index[source]
        target_bits = bit_vars.get(target_index)
        source_bits = bit_vars.get(source_index)
        if target_bits is None or source_bits is None:
            cnf.add_unit(encode_numbering_constraint(
                encoder, target_index, source_index, width))
            for index in (target_index, source_index):
                if index not in bit_vars:
                    bit_vars[index] = [cnf.var(bit_name(index, bit))
                                       for bit in range(width)]
        else:
            cnf.add_unit(encode_numbering_constraint_bits(
                cnf, target_bits, source_bits))
    if empty:
        cnf.add_unit(encoder.true_literal())
    return cnf, vertex_index


def is_acyclic_by_sat(graph: DirectedGraph[V]) -> bool:
    """Decide acyclicity by SAT (satisfiable = acyclic)."""
    cnf, _ = encode_acyclicity(graph)
    return solve_cnf(cnf).satisfiable


def acyclicity_oracle(graph: DirectedGraph[V]):
    """An incremental acyclicity oracle over ``graph``'s edge universe.

    Convenience re-export of
    :class:`repro.checking.incremental.AcyclicityOracle`: encode once, then
    query any edge subset (escape analysis, per-routing subgraphs) with one
    incremental solve each.
    """
    from repro.checking.incremental import AcyclicityOracle

    return AcyclicityOracle(graph)


def decode_topological_numbering(graph: DirectedGraph[V]) -> Dict[V, int]:
    """Return a numbering witnessing acyclicity (raises if cyclic).

    The numbering is extracted from a SAT model of the acyclicity encoding;
    every edge of the graph strictly decreases it.
    """
    cnf, vertex_index = encode_acyclicity(graph)
    result = solve_cnf(cnf)
    if not result.satisfiable:
        raise ValueError("graph has a cycle; no topological numbering exists")
    named = result.named_model(cnf)
    width = max(1, math.ceil(math.log2(max(len(vertex_index), 2))))
    numbering: Dict[V, int] = {}
    for vertex, index in vertex_index.items():
        value = 0
        for bit in range(width):
            if named.get(_bit_name(index, bit), False):
                value |= 1 << bit
        numbering[vertex] = value
    return numbering


def encode_cycle_existence(graph: DirectedGraph[V], through: V,
                           max_length: int) -> Tuple[CNF, Dict[str, Tuple[V, int]]]:
    """Encode "there is a cycle of length <= ``max_length`` through ``through``".

    The encoding unrolls a path ``through = v_0 -> v_1 -> ... -> v_k = through``
    with ``1 <= k <= max_length`` using one selector variable per (vertex,
    step).  Satisfiable iff such a cycle exists.
    """
    vertices = sorted(graph.vertices, key=repr)
    cnf = CNF()
    selector: Dict[Tuple[int, V], int] = {}
    meaning: Dict[str, Tuple[V, int]] = {}
    for step in range(max_length + 1):
        for vertex in vertices:
            name = f"at_{step}_{vertices.index(vertex)}"
            var = cnf.var(name)
            selector[(step, vertex)] = var
            meaning[name] = (vertex, step)

    # Step 0 is the chosen vertex.
    cnf.add_unit(selector[(0, through)])
    for vertex in vertices:
        if vertex != through:
            cnf.add_unit(-selector[(0, vertex)])

    # At most one vertex per step.
    from repro.checking.cnf import at_most_one

    for step in range(max_length + 1):
        cnf.add_clauses(at_most_one([selector[(step, vertex)]
                                     for vertex in vertices]))

    # Transitions follow edges (or the walk has already closed and stutters
    # on ``through``).
    for step in range(max_length):
        for vertex in vertices:
            successors = graph.successors(vertex)
            allowed = [selector[(step + 1, succ)] for succ in successors]
            if vertex == through:
                allowed.append(selector[(step + 1, through)])
            cnf.add_clause([-selector[(step, vertex)]] + allowed
                           if allowed else [-selector[(step, vertex)]])

    # The walk must return to ``through`` at some step >= 1 having left it.
    left = [selector[(1, vertex)] for vertex in vertices if vertex != through]
    cnf.add_clause(left if left else [])
    cnf.add_unit(selector[(max_length, through)])
    return cnf, meaning


def has_cycle_through_by_sat(graph: DirectedGraph[V], through: V,
                             max_length: int = None) -> bool:
    """Is there a cycle through ``through``?  (bounded unrolling + SAT)."""
    if max_length is None:
        max_length = graph.vertex_count
    cnf, _ = encode_cycle_existence(graph, through, max_length)
    return solve_cnf(cnf).satisfiable
