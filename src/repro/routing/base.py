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
``_route_from_in_port`` (the algorithm case), and records the dependency
successors as it goes.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
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


#: ``in_port_hops(destination)`` is the algorithm case of one destination
#: column: ``p -> hop ids`` for an in-port ``p`` of any node but the
#: destination's.
ColumnHops = Callable[[Port], Callable[[int], Tuple[int, ...]]]


def skeleton_columns(routing: RoutingFunction, ports: Sequence[Port],
                     index: Dict[Port, int],
                     in_port_hops: Optional[ColumnHops] = None
                     ) -> Callable[[Port], Tuple[List, Callable]]:
    """:meth:`RoutingFunction.next_hops` over dense ids, one column at a time.

    ``column_hops(destination)`` checks the destination and returns the
    column's fixed rows -- each out-port's link tuple and, at the in-ports
    of the destination's node, its one ``(d,)`` tuple; ``None`` elsewhere
    -- and the next-hop function of the other in-ports:
    ``in_port_hops(destination)``, by default ``_route_from_in_port``
    mapped to ids.  A sink (an out-port without a link) falls back to
    ``next_hops``, which raises as the skeleton does.
    """
    links: List[Optional[Tuple[int, ...]]] = []
    sinks = bytearray(len(ports))
    in_ports: Dict[Tuple[int, int], List[int]] = {}
    for p, port in enumerate(ports):
        link = None
        if port.is_output:
            target = routing.topology.link_target(port)
            if target is None:
                sinks[p] = 1
            else:
                link = (index[target],)
        else:
            in_ports.setdefault(port.node, []).append(p)
        links.append(link)
    has_sinks = any(sinks)
    if in_port_hops is None:
        route = routing._route_from_in_port

        def in_port_hops(destination: Port) -> Callable:
            return lambda p: _ids(index, route(ports[p], destination))

    def column_hops(destination: Port) -> Tuple[List, Callable]:
        routing._require_destination(destination)
        fixed = links[:]
        delivery = (index[destination],)
        for p in in_ports.get(destination.node, ()):
            fixed[p] = delivery
        algorithm = in_port_hops(destination)
        if not has_sinks:
            return fixed, algorithm

        def hops_of(p: int) -> Tuple[int, ...]:
            if sinks[p]:
                return _ids(index, routing.next_hops(ports[p], destination))
            return algorithm(p)

        return fixed, hops_of

    return column_hops


class RouteTable:
    """Every next hop of one routing function, computed once.

    Ports are dense ids in ``topology.ports`` order and destinations are
    columns in ``destinations()`` order; ``hops[p * width + d]`` is the
    tuple of next-hop ids of port ``p`` towards destination ``d``, or
    ``None`` where ``p R d`` fails or ``p`` is ``d``.  Equal hop tuples are
    one shared object.  The occurring-pairs walk (``s R d``) fills it
    over :func:`skeleton_columns`, following every branch from every local
    in-port; a routing with its own column answers passes them as
    ``_in_port_columns(ports, index)``.  The walk also records each
    port's dependency successors in edge order (destination, then hop).
    """

    def __init__(self, routing: RoutingFunction) -> None:
        self.ports = ports = routing.topology.ports
        self.index = index = {port: i for i, port in enumerate(ports)}
        self.destinations = routing.destinations()
        self.columns = {d: i for i, d in enumerate(self.destinations)}
        self.width = width = len(self.destinations)
        hops: List[Optional[Tuple[int, ...]]] = [None] * (len(ports) * width)
        self.hops = hops
        own = getattr(routing, "_in_port_columns", None)
        column_hops = skeleton_columns(
            routing, ports, index,
            own(ports, index) if own is not None else None)
        sources = _ids(index, routing.topology.local_in_ports())
        successors: List[Tuple[int, ...]] = [()] * len(ports)
        share = {}.setdefault
        for d, destination in enumerate(self.destinations):
            fixed, hops_of = column_hops(destination)
            seen = bytearray(len(ports))
            seen[index[destination]] = 1
            frontier = list(sources)
            pop, extend = frontier.pop, frontier.extend
            while frontier:
                p = pop()
                if seen[p]:
                    continue
                seen[p] = 1
                row = fixed[p]
                if row is None:
                    row = hops_of(p)
                    row = share(row, row)
                hops[p * width + d] = row
                known = successors[p]
                if known is not row:
                    if not known:
                        successors[p] = (row if len(set(row)) == len(row)
                                         else tuple(dict.fromkeys(row)))
                    else:
                        extra = [q for q in row if q not in known]
                        if extra:
                            successors[p] = known + tuple(
                                dict.fromkeys(extra))
                extend(row)
        self._successors: Optional[List[Tuple[int, ...]]] = successors

    def take_successors(self, columns: Optional[Sequence[int]] = None
                        ) -> List[Tuple[int, ...]]:
        """Each port's dependency successor ids, in edge order.

        The fill's record is handed out once, not kept (the table lives as
        long as its routing); later calls, or a subset of destination
        ``columns``, read the successors off :attr:`hops`.
        """
        if columns is None:
            successors, self._successors = self._successors, None
            if successors is not None:
                return successors
            columns = range(self.width)
        width, hops = self.width, self.hops
        successors = []
        for p in range(len(self.ports)):
            seen: Dict[int, None] = {}
            for d in columns:
                row = hops[p * width + d]
                if row:
                    seen.update(dict.fromkeys(row))
            successors.append(tuple(seen))
        return successors

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
