"""Dimension-order routing on a 2D torus.

Plain XY routing lifted to the torus: route along the x-ring first (taking
the shorter arc, ties going East), then along the y-ring (ties going South).
Because the wrap-around links are used, the port dependency graph contains
the textbook ring cycles in every row and column -- this is the
deadlock-prone baseline that dateline escape channels
(:mod:`repro.routing.escape`) repair at VC granularity.
"""

from __future__ import annotations

from typing import List

from repro.core.constituents import RoutingFunction
from repro.network.port import Direction, Port, PortName, trans
from repro.network.torus import Torus2D


class TorusXYRouting(RoutingFunction):
    """Deterministic minimal dimension-order (XY) routing on a torus."""

    def __init__(self, torus: Torus2D) -> None:
        self._torus = torus

    @property
    def topology(self) -> Torus2D:
        return self._torus

    @property
    def torus(self) -> Torus2D:
        return self._torus

    def name(self) -> str:
        return "Rxy-torus"

    def _route_from_in_port(self, current: Port,
                            destination: Port) -> List[Port]:
        """The dimension-order direction choice (shorter arc, ties E/S)."""
        if destination.x != current.x:
            east = (destination.x - current.x) % self._torus.width
            west = (current.x - destination.x) % self._torus.width
            name = PortName.EAST if east <= west else PortName.WEST
        else:
            south = (destination.y - current.y) % self._torus.height
            north = (current.y - destination.y) % self._torus.height
            name = PortName.SOUTH if south <= north else PortName.NORTH
        return [trans(current, name, Direction.OUT)]


class TorusAdaptiveMinimalRouting(TorusXYRouting):
    """All minimal directions allowed at every hop of a torus.

    The torus analogue of
    :class:`~repro.routing.adaptive.FullyAdaptiveMinimalRouting`: at every
    in-port, any direction along a shorter (or tied) arc of an unfinished
    dimension is allowed.  Deadlock-prone on its own; used as the adaptive
    VC class of the torus escape-channel instantiations.
    """

    def name(self) -> str:
        return "Radaptive-torus"

    @property
    def is_deterministic(self) -> bool:
        return False

    def _route_from_in_port(self, current: Port,
                            destination: Port) -> List[Port]:
        """Directions along a shortest (or tied-shortest) arc per dimension."""
        names: List[PortName] = []
        if destination.x != current.x:
            east = (destination.x - current.x) % self._torus.width
            west = (current.x - destination.x) % self._torus.width
            if east <= west:
                names.append(PortName.EAST)
            if west <= east:
                names.append(PortName.WEST)
        if destination.y != current.y:
            south = (destination.y - current.y) % self._torus.height
            north = (current.y - destination.y) % self._torus.height
            if south <= north:
                names.append(PortName.SOUTH)
            if north <= south:
                names.append(PortName.NORTH)
        return [trans(current, name, Direction.OUT) for name in names]
