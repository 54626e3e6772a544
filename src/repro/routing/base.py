"""Shared machinery of the mesh routing functions.

All mesh routing functions in this library are defined at the *port* level,
like the paper's ``Rxy`` (Section V.3):

* applied to an **out-port**, the next hop is the in-port it is physically
  connected to (``next_in``);
* applied to an **in-port** of the destination node, the next hop is the
  local out-port (delivery);
* applied to any other in-port, the next hop is one (or, for adaptive
  functions, several) of the node's out-ports chosen by the concrete
  algorithm.

The helper :func:`occurring_pairs` computes which (port, destination) pairs
can actually occur on routes that start at local in-ports; it is the
``s R d`` reachability predicate of the partially adaptive routing
functions, whose port-level definition is only meaningful on occurring
pairs.  :func:`route_table` computes every next hop of a routing function
once, into the flat :class:`RouteTable` that dependency enumeration, (V-1)
coverage and that predicate share.
"""

from __future__ import annotations

import abc
import functools
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.constituents import RoutingFunction
from repro.core.errors import RoutingError
from repro.network.mesh import Mesh2D
from repro.network.port import Direction, Port, PortName, next_in, trans
from repro.network.topology import Topology


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

    # -- the out-port and delivery cases shared by every algorithm -----------------
    def next_hops(self, current: Port, destination: Port) -> List[Port]:
        self._check_destination(destination)
        if current == destination:
            return []
        if current.direction is Direction.OUT:
            if current.name is PortName.LOCAL:
                raise RoutingError(
                    f"cannot route from local out-port {current}: it is a "
                    f"network sink")
            return [next_in(current)]
        if current.node == destination.node:
            return [trans(current, PortName.LOCAL, Direction.OUT)]
        return self._route_from_in_port(current, destination)

    @abc.abstractmethod
    def _route_from_in_port(self, current: Port,
                            destination: Port) -> List[Port]:
        """The algorithm-specific case: an in-port of a non-destination node."""

    # -- reachability ------------------------------------------------------------------
    def reachable(self, source: Port, destination: Port) -> bool:
        """Default ``s R d``: any port except foreign local out-ports.

        Deterministic minimal routing reaches any local out-port from any
        port of the mesh, so the only exclusions are destinations that are
        not local out-ports and sources that are themselves network sinks.
        """
        if not self._is_valid_destination(destination):
            return False
        if not self._mesh.has_port(source):
            return False
        if source == destination:
            return True
        if source.name is PortName.LOCAL and source.direction is Direction.OUT:
            return False
        return True

    def _is_valid_destination(self, destination: Port) -> bool:
        return (destination.name is PortName.LOCAL
                and destination.direction is Direction.OUT
                and self._mesh.has_port(destination))

    def _check_destination(self, destination: Port) -> None:
        if not self._is_valid_destination(destination):
            raise RoutingError(
                f"{destination} is not a valid destination (destinations are "
                f"local out-ports of the mesh)")

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


def occurring_pairs(routing: RoutingFunction,
                    ) -> FrozenSet[Tuple[Port, Port]]:
    """All (port, destination) pairs that occur on routes from local in-ports.

    For every local in-port ``s`` and every destination ``d``, follow every
    adaptive branch of the routing function and collect the (visited port,
    ``d``) pairs.  The result is the natural ``s R d`` predicate for
    partially adaptive routing functions whose port-level definition is only
    exercised on ports a packet can actually be at.  It never consults
    ``reachable``, so it is also the reference for closed-form predicates.
    """
    ports = routing.topology.ports
    index = {port: i for i, port in enumerate(ports)}
    destinations = routing.destinations()
    return frozenset((ports[p], destinations[d]) for d, p, _
                     in _walk_occurring(routing, ports, index, destinations))


def _ids(index: Dict[Port, int], hops: Sequence[Port]) -> Tuple[int, ...]:
    try:
        return tuple([index[hop] for hop in hops])
    except KeyError as missing:
        raise RoutingError(f"routing produced non-existent port "
                           f"{missing.args[0]}") from None


def _walk_occurring(routing: RoutingFunction, ports: Sequence[Port],
                    index: Dict[Port, int], destinations: Sequence[Port],
                    column_hops: Optional[Callable[[Port], Callable]] = None
                    ) -> Iterator[Tuple[int, int, Optional[Tuple[int, ...]]]]:
    """The occurring-pairs search, over dense port ids.

    For each destination ``d`` follows every branch from every local
    in-port and yields ``(d, p, hop ids)`` once per visited port ``p``;
    the hops are ``None`` at the destination itself.  The hop ids of
    ``p`` come from ``column_hops(destination)(p)``; by default that asks
    ``routing.next_hops``.
    """
    if column_hops is None:
        def column_hops(destination: Port) -> Callable:
            return lambda p: _ids(index, routing.next_hops(ports[p],
                                                           destination))
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


def _enumerate_pairs(routing: RoutingFunction, ports: Sequence[Port],
                     index: Dict[Port, int], destinations: Sequence[Port]
                     ) -> Iterator[Tuple[int, int, Tuple[int, ...]]]:
    """Every ``(d, p, hop ids)`` with ``p != d`` and ``p R d``, by brute force."""
    for p, port in enumerate(ports):
        for d, destination in enumerate(destinations):
            if port != destination and routing.reachable(port, destination):
                yield d, p, _ids(index, routing.next_hops(port, destination))


class RouteTable:
    """Every next hop of one routing function, computed once.

    Ports are dense ids in ``topology.ports`` order and destinations are
    columns in ``destinations()`` order; ``hops[p * width + d]`` is the
    tuple of next-hop ids of port ``p`` towards destination ``d``, or
    ``None`` where ``p R d`` fails or ``p`` is ``d``.  Equal hop tuples are
    one shared object.  A routing that defines
    ``_fill_route_table(ports, index, destinations)`` fills the table
    itself, yielding ``(d, p, hop ids)`` as :func:`_walk_occurring` does
    (the VC escape relations compose theirs from their base routings).
    Otherwise a routing whose ``s R d`` is occurring pairs fills it from
    that search (one ``next_hops`` call per pair), and any other routing
    asks ``reachable`` then ``next_hops`` for every pair.
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
        if fill is None:
            walk = (_walk_occurring if isinstance(
                getattr(routing, "_reachability", None),
                OccurringPairsReachability) else _enumerate_pairs)
            fill = functools.partial(walk, routing)
        shared: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        for d, p, hops in fill(self.ports, self.index, self.destinations):
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


class OccurringPairsReachability:
    """A ``reachable`` predicate answered from the routing's route table."""

    def __init__(self, routing: RoutingFunction) -> None:
        self._routing = routing

    def __call__(self, source: Port, destination: Port) -> bool:
        if source == destination:
            return True
        return route_table(self._routing).lookup(source,
                                                 destination) is not None
