"""Test-only references for ``s R d`` that share no code with the route table.

:func:`occurring_pairs` is a plain breadth-first search over the public
``next_hops``: for every destination, every port a packet bound for it can
occupy on a route from a local in-port.  :func:`dimension_order_reaches`
is the closed form of those pairs for XY and YX routing on a healthy
mesh, as the paper describes them (Section V.3): a second reference that
does not walk at all.
"""

from collections import deque

from repro.network.port import Direction, PortName


def occurring_pairs(routing):
    """All ``(port, destination)`` pairs on routes from local in-ports,
    destinations included (``d R d`` holds)."""
    pairs = set()
    sources = routing.topology.local_in_ports()
    for destination in routing.destinations():
        seen = set(sources)
        queue = deque(sources)
        while queue:
            port = queue.popleft()
            pairs.add((port, destination))
            for hop in routing.next_hops(port, destination):
                if hop not in seen:
                    seen.add(hop)
                    queue.append(hop)
    return frozenset(pairs)


def reachable_pairs(routing):
    """``{(p, d) : routing.reachable(p, d)}`` over the topology's ports."""
    return frozenset((port, destination)
                     for port in routing.topology.ports
                     for destination in routing.destinations()
                     if routing.reachable(port, destination))


def dimension_order_reaches(order, source, destination):
    """The closed-form ``s R d`` of ``order`` ("xy" or "yx") routing.

    A local in-port starts a route to any destination.  Under XY routing
    a packet occupies a West in-port (travelling East) only if its
    destination column is not to the West, and a vertical port only once
    it is in its destination column; YX swaps the roles of the axes.
    """
    if source == destination:
        return True
    if source.name is PortName.LOCAL:
        return source.direction is Direction.IN
    first = order[0]
    axis = "x" if source.name in (PortName.WEST, PortName.EAST) else "y"
    here = getattr(source, axis)
    there = getattr(destination, axis)
    # Moving towards larger coordinates: in at the West/North side, out
    # at the East/South side.
    increasing = (source.name in (PortName.WEST, PortName.NORTH)) \
        == (source.direction is Direction.IN)
    if source.direction is Direction.IN:
        along = there >= here if increasing else there <= here
    else:
        along = there > here if increasing else there < here
    if axis == first:
        return along
    return along and getattr(destination, first) == getattr(source, first)
