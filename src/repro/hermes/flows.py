"""Flows and the parametric acyclicity argument for ``Exy_dep`` (Fig. 4).

The paper proves obligation (C-3) -- no cycle in the dependency graph -- for
meshes of *arbitrary* size with the notion of **flows**: a flow is a sequence
of ports which continually increases or decreases one coordinate, and a cycle
would have to both leave and re-enter a flow, which is impossible:

* the *Northern flow* consists of South-in and North-out ports and
  continually decreases the y-coordinate; its only escape is a local
  out-port (a sink);
* symmetrically for the Southern flow;
* the *Western/Eastern (horizontal) flows* consist of the horizontal ports;
  they can only escape into a local out-port or into a vertical flow,
  which in turn cannot escape.

This module makes that argument executable in two complementary ways:

1. **Flow extraction and escape analysis** (:func:`analyse_flows`): classify
   every port of a concrete mesh into its flow and check the escape
   properties above edge-by-edge.
2. **Rank certificate** (:func:`hermes_rank`,
   :func:`check_rank_certificate_on_mesh`,
   :func:`check_rank_case_analysis`): a numeric rank over ports --
   lexicographically (phase, progress) where vertical flows have a lower
   phase than horizontal flows and progress counts remaining hops within the
   flow -- that strictly decreases along *every* edge of ``Exy_dep``.  The
   per-instance check walks all edges of a bounded mesh; the case analysis
   checks the finitely many *edge kinds* with symbolic coordinate offsets,
   which is the size-independent (parametric) form of the proof.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.checking.graphs import check_rank_certificate
from repro.hermes.dependency import ExyDependencySpec, build_exy_graph
from repro.network.mesh import Mesh2D
from repro.network.port import Direction, Port, PortName


class Flow(str, enum.Enum):
    """The four flows of the paper's Fig. 4, plus the local port classes."""

    #: South-in / North-out ports: movement towards decreasing y
    #: (the paper's "Northern flow").
    NORTHWARD = "northward"
    #: North-in / South-out ports: movement towards increasing y.
    SOUTHWARD = "southward"
    #: West-in / East-out ports: movement towards increasing x.
    EASTWARD = "eastward"
    #: East-in / West-out ports: movement towards decreasing x
    #: (the paper's "Western flow").
    WESTWARD = "westward"
    #: Local in-ports (injection).
    LOCAL_IN = "local-in"
    #: Local out-ports (delivery sinks).
    LOCAL_OUT = "local-out"


#: Phases of the rank certificate: sinks < vertical flows < horizontal
#: flows < injection ports.
_PHASE = {
    Flow.LOCAL_OUT: 0,
    Flow.NORTHWARD: 1,
    Flow.SOUTHWARD: 1,
    Flow.EASTWARD: 2,
    Flow.WESTWARD: 2,
    Flow.LOCAL_IN: 3,
}


def flow_of(port: Port) -> Flow:
    """The flow a port belongs to."""
    if port.name is PortName.LOCAL:
        return Flow.LOCAL_IN if port.is_input else Flow.LOCAL_OUT
    if port.is_input:
        return {
            PortName.SOUTH: Flow.NORTHWARD,
            PortName.NORTH: Flow.SOUTHWARD,
            PortName.WEST: Flow.EASTWARD,
            PortName.EAST: Flow.WESTWARD,
        }[port.name]
    return {
        PortName.NORTH: Flow.NORTHWARD,
        PortName.SOUTH: Flow.SOUTHWARD,
        PortName.EAST: Flow.EASTWARD,
        PortName.WEST: Flow.WESTWARD,
    }[port.name]


def hermes_rank(port: Port, width: int, height: int) -> Tuple[int, int]:
    """The rank certificate of the XY dependency graph.

    The first component is the flow phase (sinks lowest, then vertical
    flows, then horizontal flows, then injection ports); the second counts
    the remaining progress within the flow, with in-ports ranked just above
    the out-port of the same node so that every single edge of ``Exy_dep``
    strictly decreases the pair lexicographically.
    """
    flow = flow_of(port)
    phase = _PHASE[flow]
    if flow is Flow.LOCAL_OUT or flow is Flow.LOCAL_IN:
        return (phase, 0)
    is_in = 1 if port.is_input else 0
    if flow is Flow.NORTHWARD:
        return (phase, 2 * port.y + is_in)
    if flow is Flow.SOUTHWARD:
        return (phase, 2 * (height - 1 - port.y) + is_in)
    if flow is Flow.EASTWARD:
        return (phase, 2 * (width - 1 - port.x) + is_in)
    # Westward flow.
    return (phase, 2 * port.x + is_in)


# ---------------------------------------------------------------------------
# Flow extraction and escape analysis (the Fig. 4 benchmark)
# ---------------------------------------------------------------------------

@dataclass
class FlowAnalysis:
    """Classification of a mesh's ports into flows plus escape statistics."""

    mesh: Mesh2D
    members: Dict[Flow, List[Port]] = field(default_factory=dict)
    #: For every flow: the edges that leave the flow, grouped by the flow
    #: (or local class) they escape into.
    escapes: Dict[Flow, Dict[Flow, int]] = field(default_factory=dict)
    #: Edges that stay inside their flow.
    internal_edges: Dict[Flow, int] = field(default_factory=dict)

    @property
    def vertical_flows_escape_only_to_sinks(self) -> bool:
        """Paper: the only escape from a vertical flow is a local out-port."""
        for flow in (Flow.NORTHWARD, Flow.SOUTHWARD):
            for target_flow, count in self.escapes.get(flow, {}).items():
                if count and target_flow is not Flow.LOCAL_OUT:
                    return False
        return True

    @property
    def horizontal_flows_escape_only_to_vertical_or_sinks(self) -> bool:
        """Paper: horizontal flows escape only into vertical flows or sinks."""
        allowed = {Flow.LOCAL_OUT, Flow.NORTHWARD, Flow.SOUTHWARD}
        for flow in (Flow.EASTWARD, Flow.WESTWARD):
            for target_flow, count in self.escapes.get(flow, {}).items():
                if count and target_flow not in allowed:
                    return False
        return True

    def flow_sizes(self) -> Dict[Flow, int]:
        return {flow: len(ports) for flow, ports in self.members.items()}


def analyse_flows(mesh: Mesh2D) -> FlowAnalysis:
    """Classify all ports of ``mesh`` into flows and analyse flow escapes."""
    spec = ExyDependencySpec(mesh)
    analysis = FlowAnalysis(mesh=mesh)
    for flow in Flow:
        analysis.members[flow] = []
        analysis.escapes[flow] = {}
        analysis.internal_edges[flow] = 0
    for port in mesh.ports:
        analysis.members[flow_of(port)].append(port)
    for source, target in spec.edges():
        source_flow = flow_of(source)
        target_flow = flow_of(target)
        if source_flow is target_flow:
            analysis.internal_edges[source_flow] += 1
        else:
            bucket = analysis.escapes[source_flow]
            bucket[target_flow] = bucket.get(target_flow, 0) + 1
    return analysis


def coordinate_monotone_along_flow(mesh: Mesh2D, flow: Flow) -> bool:
    """Check the paper's "continually decreases/increases a coordinate".

    Every ``Exy_dep`` edge that stays inside ``flow`` must move the flow's
    coordinate strictly in the flow's direction (at the rank granularity
    used by :func:`hermes_rank`).
    """
    spec = ExyDependencySpec(mesh)
    for source, target in spec.edges():
        if flow_of(source) is not flow or flow_of(target) is not flow:
            continue
        source_rank = hermes_rank(source, mesh.width, mesh.height)
        target_rank = hermes_rank(target, mesh.width, mesh.height)
        if not target_rank < source_rank:
            return False
    return True


# ---------------------------------------------------------------------------
# Rank certificate: per-instance check and parametric case analysis
# ---------------------------------------------------------------------------

def check_rank_certificate_on_mesh(mesh: Mesh2D) -> List[Tuple[Port, Port]]:
    """Check the rank certificate on every edge of a concrete mesh.

    Returns the violating edges (empty list = certificate holds, hence the
    dependency graph is acyclic).
    """
    graph = build_exy_graph(mesh).to_ids()
    ports = graph.vertices
    rank = [hermes_rank(port, mesh.width, mesh.height) for port in ports]
    return [(ports[p], ports[q])
            for p, q in check_rank_certificate(graph.successors, rank)]


@dataclass
class RankCase:
    """One symbolic edge kind of ``Exy_dep`` and its rank delta."""

    description: str
    source_kind: Tuple[PortName, Direction]
    target_kind: Tuple[PortName, Direction]
    #: (dx, dy) offset of the target port's node relative to the source's.
    node_offset: Tuple[int, int]
    #: The lexicographic rank delta observed (must be negative and identical
    #: at every sampled coordinate).
    decreases: bool
    coordinate_independent: bool


def _edge_kinds() -> List[Tuple[Tuple[PortName, Direction],
                                Tuple[PortName, Direction],
                                Tuple[int, int]]]:
    """The finitely many edge kinds of ``Exy_dep`` (independent of mesh size)."""
    kinds = []
    # In-port -> out-ports of the same node, following next_outs.
    in_successors = {
        PortName.LOCAL: [PortName.LOCAL, PortName.WEST, PortName.EAST,
                         PortName.NORTH, PortName.SOUTH],
        PortName.WEST: [PortName.LOCAL, PortName.EAST, PortName.NORTH,
                        PortName.SOUTH],
        PortName.EAST: [PortName.LOCAL, PortName.WEST, PortName.NORTH,
                        PortName.SOUTH],
        PortName.NORTH: [PortName.LOCAL, PortName.SOUTH],
        PortName.SOUTH: [PortName.LOCAL, PortName.NORTH],
    }
    for in_name, out_names in in_successors.items():
        for out_name in out_names:
            kinds.append(((in_name, Direction.IN), (out_name, Direction.OUT),
                          (0, 0)))
    # Cardinal out-port -> in-port of the neighbouring node (next_in).
    neighbour = {
        PortName.EAST: (PortName.WEST, (1, 0)),
        PortName.WEST: (PortName.EAST, (-1, 0)),
        PortName.NORTH: (PortName.SOUTH, (0, -1)),
        PortName.SOUTH: (PortName.NORTH, (0, 1)),
    }
    for out_name, (in_name, offset) in neighbour.items():
        kinds.append(((out_name, Direction.OUT), (in_name, Direction.IN),
                      offset))
    return kinds


def check_rank_case_analysis(samples: Sequence[Tuple[int, int, int, int]] = (
        (3, 3, 8, 8), (1, 5, 9, 7), (4, 2, 6, 11), (2, 2, 5, 5),
        (5, 1, 12, 6))) -> List[RankCase]:
    """The parametric (size-independent) form of the (C-3) proof.

    For each of the finitely many *edge kinds* of ``Exy_dep`` -- in-port to
    out-port within a node, and out-port to the neighbouring in-port -- the
    rank delta is evaluated at several interior coordinates ``(x, y)`` and
    mesh sizes ``(w, h)``.  The delta must (a) be strictly decreasing and
    (b) not depend on the coordinates; together with the fact that the edge
    kinds cover every edge of ``Exy_dep`` on any mesh, this establishes
    acyclicity for arbitrary mesh sizes.

    Returns one :class:`RankCase` per edge kind; the proof succeeds iff every
    case has ``decreases`` and ``coordinate_independent`` set.
    """
    cases: List[RankCase] = []
    for (src_name, src_dir), (dst_name, dst_dir), offset in _edge_kinds():
        phase_deltas = set()
        distance_deltas = set()
        decreasing = True
        for x, y, width, height in samples:
            source = Port(x, y, src_name, src_dir)
            target = Port(x + offset[0], y + offset[1], dst_name, dst_dir)
            source_rank = hermes_rank(source, width, height)
            target_rank = hermes_rank(target, width, height)
            phase_deltas.add(target_rank[0] - source_rank[0])
            distance_deltas.add(target_rank[1] - source_rank[1])
            if not target_rank < source_rank:
                decreasing = False
        # The decrease is established coordinate-independently when either the
        # phase strictly drops (phases depend only on the port kind, never on
        # coordinates), or the phase is unchanged and the within-flow distance
        # drops by the same constant at every sampled coordinate.
        phase_delta = phase_deltas.pop() if len(phase_deltas) == 1 else None
        if phase_delta is None:
            coordinate_independent = False
        elif phase_delta < 0:
            coordinate_independent = True
        else:
            coordinate_independent = (
                phase_delta == 0
                and len(distance_deltas) == 1
                and next(iter(distance_deltas)) < 0)
        cases.append(RankCase(
            description=(f"{src_name.value}-{src_dir.value} -> "
                         f"{dst_name.value}-{dst_dir.value}"),
            source_kind=(src_name, src_dir),
            target_kind=(dst_name, dst_dir),
            node_offset=offset,
            decreases=decreasing,
            coordinate_independent=coordinate_independent,
        ))
    return cases


def parametric_c3_holds(cases: Optional[List[RankCase]] = None) -> bool:
    """Does the parametric case analysis establish (C-3) for all mesh sizes?"""
    if cases is None:
        cases = check_rank_case_analysis()
    return all(case.decreases and case.coordinate_independent for case in cases)
