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
from repro.routing.base import ColumnHops, _ids
from repro.routing.turn_model import odd_even_directions

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
        # destination node -> {node: shortest-path out-ports, or the pick},
        # each distinct tuple of out-ports one shared object
        self._shortest: Dict[Coordinate, Dict[Coordinate, Tuple]] = {}
        self._tuples: Dict[Tuple[Port, ...], Tuple[Port, ...]] = {}

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
        candidates = self._shortest_to(destination.node).get(current.node)
        if candidates is None:
            raise RoutingError(
                f"{destination} is unreachable from {current}: the fault "
                f"set disconnects them")
        if not candidates:
            raise RoutingError(
                f"no shortest-path hop from {current} to {destination}")
        if self._filter is None:
            return list(candidates)
        preferred = self._filter(current, destination)
        if self._adaptive:
            if preferred is not None:
                filtered = [out for out in candidates
                            if out.name in preferred]
                if filtered:
                    return filtered
            return list(candidates)
        order = tuple(preferred) if preferred else self._preference
        return [self._pick(candidates, order)]

    @staticmethod
    def _pick(candidates: Sequence[Port], order: Sequence[PortName]) -> Port:
        """The deterministic hop: the candidate first in ``order``."""
        if len(candidates) == 1:
            return candidates[0]
        return min(candidates, key=lambda out: (
            order.index(out.name) if out.name in order else len(order), out))

    def _shortest_to(self, destination: Coordinate
                     ) -> Dict[Coordinate, Tuple[Port, ...]]:
        """Each node's shortest-path out-ports towards ``destination``.

        One BFS from the destination gives every node its distance and,
        in adjacency order, the out-ports whose link target is one hop
        closer.  A deterministic routing without a direction filter keeps
        only its pick among them, by the preference order.  Links are
        bidirectional at node level (validated), so the forward BFS
        distance doubles as the distance *to* the destination.
        """
        shortest = self._shortest.get(destination)
        if shortest is not None:
            return shortest
        adjacency, share = self._adjacency, self._tuples.setdefault
        preference = (self._preference if not self._adaptive
                      and self._filter is None else None)
        distances = {destination: 0}
        shortest = {}
        frontier = [destination]
        layer = 0
        while frontier:
            next_frontier: List[Coordinate] = []
            for node in frontier:
                candidates = []
                for out, neighbour in adjacency[node]:
                    distance = distances.get(neighbour)
                    if distance is None:
                        distances[neighbour] = layer + 1
                        next_frontier.append(neighbour)
                    elif distance < layer:
                        candidates.append(out)
                if preference and candidates:
                    candidates = [self._pick(candidates, preference)]
                entry = tuple(candidates)
                shortest[node] = share(entry, entry)
            frontier = next_frontier
            layer += 1
        self._shortest[destination] = shortest
        return shortest

    def _in_port_columns(self, ports: Sequence[Port],
                         index: Dict[Port, int]) -> ColumnHops:
        """The algorithm case of the route table's skeleton, over port ids.

        Without a direction filter the hops depend only on the node, so
        each column maps them to ids once per node; a filtered routing
        does so once per (node, filter answer).
        """
        node_of = [port.node for port in ports]
        route, direction_filter = self._route_from_in_port, self._filter

        def in_port_hops(destination: Port) -> Callable:
            rows: Dict[object, Tuple[int, ...]] = {}

            def hops_of(p: int) -> Tuple[int, ...]:
                key = node_of[p]
                if direction_filter is not None:
                    answer = direction_filter(ports[p], destination)
                    key = (key, tuple(answer) if answer else None)
                row = rows.get(key)
                if row is None:
                    row = rows[key] = _ids(index, route(ports[p],
                                                        destination))
                return row

            return hops_of

        return in_port_hops


# ---------------------------------------------------------------------------
# Direction filters: the base algorithms' character as a preference
# ---------------------------------------------------------------------------

# The filters run once per in-port and destination of a route table, so
# they read the cardinal names from module-level aliases, not the enum.
_EAST, _WEST, _SOUTH, _NORTH = XY_ORDER


def _minimal_names(current: Port, destination: Port) -> List[PortName]:
    names: List[PortName] = []
    if destination.x < current.x:
        names.append(_WEST)
    elif destination.x > current.x:
        names.append(_EAST)
    if destination.y < current.y:
        names.append(_NORTH)
    elif destination.y > current.y:
        names.append(_SOUTH)
    return names


def _west_first_filter(current: Port, destination: Port
                       ) -> Optional[Sequence[PortName]]:
    minimal = _minimal_names(current, destination)
    if _WEST in minimal:
        return [_WEST]
    return minimal or None


def _north_last_filter(current: Port, destination: Port
                       ) -> Optional[Sequence[PortName]]:
    minimal = _minimal_names(current, destination)
    without_north = [name for name in minimal if name is not _NORTH]
    return (without_north or minimal) or None


def _negative_first_filter(current: Port, destination: Port
                           ) -> Optional[Sequence[PortName]]:
    minimal = _minimal_names(current, destination)
    negative = [name for name in minimal if name in (_WEST, _NORTH)]
    return (negative or minimal) or None


def _odd_even_filter(current: Port, destination: Port
                     ) -> Optional[Sequence[PortName]]:
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
