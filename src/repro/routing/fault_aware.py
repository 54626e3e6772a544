"""Fault-aware routing: shortest surviving paths around dead links/routers.

The regular routing functions (XY, turn models, ring/torus dimension order)
assume every geometric neighbour exists; on a
:class:`~repro.network.faults.FaultyMesh2D` (or faulty torus/ring) they
would run into missing out-ports.  :class:`FaultAwareRouting` is the
table-based repair used by the ``faults=k`` scenario variants: per
destination node a BFS over the *surviving* links yields the node distance
map, and the next hops from an in-port are exactly the out-ports whose link
target is strictly closer to the destination -- so every hop makes
progress, routes terminate within the surviving diameter, and the relation
is total whenever the fabric is connected (which the fault sampler
guarantees).

The base algorithm's character is kept as a *preference*, not a guarantee:
a deterministic variant (fault-aware XY, YX, clockwise, ...) picks the
single shortest-path hop ranked by the algorithm's direction order, an
adaptive variant (fault-aware turn models, fully adaptive) keeps all
shortest-path hops that the algorithm's direction filter allows, falling
back to all shortest-path hops when the filter would strand the packet at
a detour.  This relaxation near faults can re-introduce forbidden turns --
whether the rerouted relation still satisfies the deadlock condition is
exactly the question the prover answers per sampled fault set.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.constituents import RoutingFunction
from repro.core.errors import RoutingError
from repro.network.port import Port, PortName
from repro.network.topology import Topology

Coordinate = Tuple[int, int]
#: Direction filter: ordered preferred directions for (current, destination),
#: or ``None`` for "no preference" (all shortest-path hops allowed).
DirectionFilter = Callable[[Port, Port], Optional[Sequence[PortName]]]

#: Default direction ranking (x moves first: the XY flavour).
XY_ORDER = (PortName.EAST, PortName.WEST, PortName.SOUTH, PortName.NORTH)
YX_ORDER = (PortName.SOUTH, PortName.NORTH, PortName.EAST, PortName.WEST)


class FaultAwareRouting(RoutingFunction):
    """Shortest-surviving-path routing over a (possibly faulty) topology."""

    def __init__(self, topology: Topology, token: str,
                 adaptive: bool = False,
                 preference: Sequence[PortName] = XY_ORDER,
                 direction_filter: Optional[DirectionFilter] = None) -> None:
        self._topology = topology
        self._token = token
        self._adaptive = bool(adaptive)
        self._preference = tuple(preference)
        self._filter = direction_filter
        # node -> ordered [(out_port, target_node)] over surviving links
        self._adjacency: Dict[Coordinate, List[Tuple[Port, Coordinate]]] = {
            node.coordinates: [] for node in topology.nodes}
        for out_port, in_port in sorted(topology.links.items()):
            if out_port.is_local:
                continue
            self._adjacency[out_port.node].append((out_port, in_port.node))
        self._distances: Dict[Coordinate, Dict[Coordinate, int]] = {}

    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def is_deterministic(self) -> bool:
        return not self._adaptive

    def name(self) -> str:
        return f"Rfa-{self._token}[{self._topology}]"

    # -- the routing relation -------------------------------------------------
    def _route_from_in_port(self, current: Port,
                            destination: Port) -> List[Port]:
        distances = self._distances_to(destination.node)
        here = distances.get(current.node)
        if here is None:
            raise RoutingError(
                f"{destination} is unreachable from {current}: the fault "
                f"set disconnects them")
        candidates = [out for out, target in self._adjacency[current.node]
                      if distances.get(target) == here - 1]
        if not candidates:
            raise RoutingError(
                f"no shortest-path hop from {current} to {destination}")
        preferred = self._filter(current, destination) if self._filter \
            else None
        if self._adaptive:
            if preferred is not None:
                filtered = [out for out in candidates
                            if out.name in preferred]
                if filtered:
                    return filtered
            return candidates
        order = tuple(preferred) if preferred else self._preference
        ranked = sorted(
            candidates,
            key=lambda out: (order.index(out.name)
                             if out.name in order else len(order), out))
        return [ranked[0]]

    def _distances_to(self, destination: Coordinate) -> Dict[Coordinate, int]:
        cached = self._distances.get(destination)
        if cached is not None:
            return cached
        distances = {destination: 0}
        frontier = [destination]
        while frontier:
            next_frontier: List[Coordinate] = []
            for node in frontier:
                for _, neighbour in self._adjacency[node]:
                    if neighbour not in distances:
                        distances[neighbour] = distances[node] + 1
                        next_frontier.append(neighbour)
            frontier = next_frontier
        # Links are bidirectional at node level (validated), so the forward
        # BFS distance doubles as the distance *to* the destination.
        self._distances[destination] = distances
        return distances


# ---------------------------------------------------------------------------
# Direction filters: the base algorithms' character as a preference
# ---------------------------------------------------------------------------

def _minimal_names(current: Port, destination: Port) -> List[PortName]:
    names: List[PortName] = []
    if destination.x < current.x:
        names.append(PortName.WEST)
    elif destination.x > current.x:
        names.append(PortName.EAST)
    if destination.y < current.y:
        names.append(PortName.NORTH)
    elif destination.y > current.y:
        names.append(PortName.SOUTH)
    return names


def _west_first_filter(current: Port, destination: Port
                       ) -> Optional[Sequence[PortName]]:
    minimal = _minimal_names(current, destination)
    if PortName.WEST in minimal:
        return [PortName.WEST]
    return minimal or None


def _north_last_filter(current: Port, destination: Port
                       ) -> Optional[Sequence[PortName]]:
    minimal = _minimal_names(current, destination)
    without_north = [name for name in minimal if name is not PortName.NORTH]
    return (without_north or minimal) or None


def _negative_first_filter(current: Port, destination: Port
                           ) -> Optional[Sequence[PortName]]:
    minimal = _minimal_names(current, destination)
    negative = [name for name in minimal
                if name in (PortName.WEST, PortName.NORTH)]
    return (negative or minimal) or None


def _odd_even_filter(current: Port, destination: Port
                     ) -> Optional[Sequence[PortName]]:
    from repro.routing.turn_model import odd_even_directions

    return odd_even_directions(current, destination) or None


def _zigzag_filter(current: Port, destination: Port
                   ) -> Optional[Sequence[PortName]]:
    if destination.x % 2 == 0:
        return XY_ORDER
    return YX_ORDER


#: token -> (adaptive?, preference order, direction filter)
_MESH_TOKEN_TABLE = {
    "xy": (False, XY_ORDER, None),
    "yx": (False, YX_ORDER, None),
    "west-first": (True, XY_ORDER, _west_first_filter),
    "north-last": (True, XY_ORDER, _north_last_filter),
    "negative-first": (True, XY_ORDER, _negative_first_filter),
    "odd-even": (True, XY_ORDER, _odd_even_filter),
    "adaptive": (True, XY_ORDER, None),
    "zigzag": (False, XY_ORDER, _zigzag_filter),
}


def fault_aware_mesh_routing(token: str,
                             topology: Topology) -> FaultAwareRouting:
    """The fault-aware variant of a mesh routing token over ``topology``."""
    try:
        adaptive, preference, direction_filter = _MESH_TOKEN_TABLE[token]
    except KeyError:
        raise RoutingError(
            f"no fault-aware variant for mesh routing token {token!r}; "
            f"known: {sorted(_MESH_TOKEN_TABLE)}") from None
    return FaultAwareRouting(topology, token, adaptive=adaptive,
                             preference=preference,
                             direction_filter=direction_filter)


def fault_aware_ring_routing(token: str,
                             topology: Topology) -> FaultAwareRouting:
    """The fault-aware variant of a ring routing token over ``topology``.

    Both ring tokens relax to shortest surviving paths; ``clockwise``
    prefers East where shortest paths tie, ``chain`` prefers West (so the
    two stay distinguishable relations on a faulty ring).
    """
    if token == "clockwise":
        order = (PortName.EAST, PortName.WEST)
    elif token == "chain":
        order = (PortName.WEST, PortName.EAST)
    else:
        raise RoutingError(
            f"no fault-aware variant for ring routing token {token!r}")
    return FaultAwareRouting(topology, token, adaptive=False,
                             preference=order)


def fault_aware_escape_routing(topology: Topology, num_vcs: int,
                               route_policy: str = "escape",
                               style: str = "xy",
                               with_adaptive: bool = True):
    """A Duato escape relation whose classes route around the faults.

    The escape class is the deterministic fault-aware shortest-path routing
    (XY-flavoured ranking); the adaptive class (when present) is the
    fault-aware all-shortest-hops relation.  ``style`` selects the escape
    VC budget exactly like the healthy builders: ``"xy"`` reserves one
    escape VC, ``"dateline"`` a pair (collapsing to one at ``num_vcs=1``);
    the dateline bump still triggers on surviving wrap links.
    """
    from repro.network.vc import VCTopology
    from repro.routing.escape import EscapeChannelRouting

    vct = VCTopology(topology, num_vcs)
    escape = FaultAwareRouting(topology, "escape", adaptive=False,
                               preference=XY_ORDER)
    adaptive: Optional[FaultAwareRouting] = None
    if with_adaptive:
        adaptive = FaultAwareRouting(topology, "adaptive", adaptive=True)
    if style == "dateline":
        escape_vc_count = 1 if num_vcs == 1 else 2
    else:
        escape_vc_count = 1
    return EscapeChannelRouting(
        vct,
        escape_routing=escape,
        adaptive_routing=adaptive,
        escape_vc_count=escape_vc_count,
        route_policy=route_policy,
        style=style)
