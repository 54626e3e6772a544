"""The routing contract, the mesh routing base class and the route table.

Every routing function in this library is defined at the *port* level,
like the paper's ``Rxy`` (Section V.3), and
:class:`~repro.core.constituents.RoutingFunction` holds that definition
once:

* applied to an **out-port**, the next hop is the in-port it is linked to
  (``topology.link_target``; a local out-port is a network sink);
* applied to an **in-port** of the destination node, the next hop is the
  destination itself (delivery);
* applied to any other in-port, the next hop is one (or, for adaptive
  functions, several) of the node's out-ports chosen by the concrete
  algorithm.

A routing therefore implements only the third case,
``_route_from_in_port(current, destination)``.  Its ``s R d`` predicate
is the same for every routing: the (port, destination) pairs that occur
on routes starting at local in-ports, following every adaptive branch.

:func:`route_table` computes every next hop of a routing function once,
into the flat :class:`RouteTable` that dependency enumeration, (V-1)
coverage and ``s R d`` share.  The table runs the skeleton itself over
dense port ids, one destination column at a time, in one walk from the
local in-ports, so per occurring pair it asks the routing only for
``_route_from_in_port`` (the algorithm case).
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.constituents import RoutingFunction
from repro.core.errors import RoutingError
from repro.network.mesh import Mesh2D
from repro.network.port import Direction, Port, PortName, trans


class MeshRoutingFunction(RoutingFunction):
    """Base class of port-level routing functions over a 2D mesh."""

    def __init__(self, mesh: Mesh2D) -> None:
        self._mesh = mesh

    @property
    def topology(self) -> Mesh2D:
        return self._mesh

    @property
    def mesh(self) -> Mesh2D:
        return self._mesh

    # -- helpers for the concrete algorithms ----------------------------------------------
    def _minimal_directions(self, current: Port,
                            destination: Port) -> List[PortName]:
        """Cardinal directions that reduce the distance to the destination."""
        directions: List[PortName] = []
        if destination.x < current.x:
            directions.append(PortName.WEST)
        elif destination.x > current.x:
            directions.append(PortName.EAST)
        if destination.y < current.y:
            directions.append(PortName.NORTH)
        elif destination.y > current.y:
            directions.append(PortName.SOUTH)
        return directions

    def _out_port(self, current: Port, name: PortName) -> Port:
        port = trans(current, name, Direction.OUT)
        if not self._mesh.has_port(port):
            raise RoutingError(
                f"routing wants out-port {port}, which does not exist "
                f"(node at the mesh boundary)")
        return port


def _ids(index: Dict[Port, int], hops: Sequence[Port]) -> Tuple[int, ...]:
    try:
        return tuple([index[hop] for hop in hops])
    except KeyError as missing:
        raise RoutingError(f"routing produced non-existent port "
                           f"{missing.args[0]}") from None


#: ``column_hops(destination)`` is the next-hop function ``p -> hop ids``
#: of one destination column.
ColumnHops = Callable[[Port], Callable[[int], Tuple[int, ...]]]


def skeleton_columns(routing: RoutingFunction, ports: Sequence[Port],
                     index: Dict[Port, int],
                     in_port_hops: Optional[ColumnHops] = None
                     ) -> ColumnHops:
    """:meth:`RoutingFunction.next_hops` over dense ids, one column at a time.

    Each out-port's link-target id tuple, the out-ports without a link
    (sinks) and each port's node are computed once.  The destination is
    checked once per column; then an out-port reads its link tuple, an
    in-port of the destination's node the column's one ``(d,)`` tuple, and
    every other in-port asks ``in_port_hops(destination)(p)`` -- by
    default ``routing._route_from_in_port`` mapped to ids.  A sink falls
    back to ``next_hops``, which raises as the skeleton does.
    """
    links: List[Optional[Tuple[int, ...]]] = []
    sinks = bytearray(len(ports))
    node_of: List[int] = []
    nodes: Dict[Tuple[int, int], int] = {}
    for p, port in enumerate(ports):
        node_of.append(nodes.setdefault(port.node, len(nodes)))
        link = None
        if port.is_output:
            target = routing.topology.link_target(port)
            if target is None:
                sinks[p] = 1
            else:
                link = (index[target],)
        links.append(link)
    if in_port_hops is None:
        route = routing._route_from_in_port

        def in_port_hops(destination: Port) -> Callable:
            return lambda p: _ids(index, route(ports[p], destination))

    def column_hops(destination: Port) -> Callable:
        routing._require_destination(destination)
        target = index[destination]
        dest_node = node_of[target]
        delivery = (target,)
        algorithm = in_port_hops(destination)

        def hops_of(p: int) -> Tuple[int, ...]:
            link = links[p]
            if link is not None:
                return link
            if sinks[p]:
                return _ids(index, routing.next_hops(ports[p], destination))
            if node_of[p] == dest_node:
                return delivery
            return algorithm(p)

        return hops_of

    return column_hops


def _walk_occurring(routing: RoutingFunction, ports: Sequence[Port],
                    index: Dict[Port, int], destinations: Sequence[Port],
                    column_hops: ColumnHops
                    ) -> Iterator[Tuple[int, int, Optional[Tuple[int, ...]]]]:
    """The occurring-pairs walk, over dense port ids: ``s R d``.

    For each destination ``d`` follows every branch from every local
    in-port and yields ``(d, p, hop ids)`` once per visited port ``p``;
    the hops are ``None`` at the destination itself.  The hop ids of
    ``p`` come from ``column_hops(destination)(p)``.
    """
    sources = _ids(index, routing.topology.local_in_ports())
    for d, destination in enumerate(destinations):
        hops_of = column_hops(destination)
        target = index[destination]
        seen = bytearray(len(ports))
        frontier = list(sources)
        while frontier:
            p = frontier.pop()
            if seen[p]:
                continue
            seen[p] = 1
            if p == target:
                yield d, p, None
                continue
            hops = hops_of(p)
            yield d, p, hops
            frontier.extend(hops)


class RouteTable:
    """Every next hop of one routing function, computed once.

    Ports are dense ids in ``topology.ports`` order and destinations are
    columns in ``destinations()`` order; ``hops[p * width + d]`` is the
    tuple of next-hop ids of port ``p`` towards destination ``d``, or
    ``None`` where ``p R d`` fails or ``p`` is ``d``.  Equal hop tuples are
    one shared object.  The table is filled by :func:`_walk_occurring`
    over :func:`skeleton_columns`.  A routing that defines
    ``_fill_route_table(ports, index, destinations)`` fills the table
    itself, yielding ``(d, p, hop ids)`` as that walk does (the VC escape
    relations run it with their hops composed from their base routings).
    """

    def __init__(self, routing: RoutingFunction) -> None:
        self.ports = routing.topology.ports
        self.index = {port: i for i, port in enumerate(self.ports)}
        self.destinations = routing.destinations()
        self.columns = {d: i for i, d in enumerate(self.destinations)}
        self.width = width = len(self.destinations)
        self.hops: List[Optional[Tuple[int, ...]]] = \
            [None] * (len(self.ports) * width)
        fill = getattr(routing, "_fill_route_table", None)
        if fill is not None:
            filled = fill(self.ports, self.index, self.destinations)
        else:
            filled = _walk_occurring(
                routing, self.ports, self.index, self.destinations,
                skeleton_columns(routing, self.ports, self.index))
        shared: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        for d, p, hops in filled:
            if hops is not None:
                self.hops[p * width + d] = shared.setdefault(hops, hops)

    def lookup(self, source: Port,
               destination: Port) -> Optional[Tuple[int, ...]]:
        """The next-hop ids of ``source`` towards ``destination``, if any."""
        p = self.index.get(source)
        d = self.columns.get(destination)
        if p is None or d is None:
            return None
        return self.hops[p * self.width + d]


def route_table(routing: RoutingFunction) -> RouteTable:
    """The route table of ``routing``, built on first use."""
    table = getattr(routing, "_route_table", None)
    if table is None:
        table = routing._route_table = RouteTable(routing)
    return table
