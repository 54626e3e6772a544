"""Ring routing functions.

Rings are the textbook example for the deadlock condition: routing that uses
the wrap-around link closes a cycle of channel dependencies, while routing
that never wraps (treating the ring as a chain) is deadlock-free.  Three
functions are provided:

* :class:`ClockwiseRingRouting` -- always travel East (clockwise), using the
  wrap-around link; the dependency graph is a single big cycle.
* :class:`ShortestPathRingRouting` -- travel in whichever direction is
  shorter; the wrap-around links are still used, so cycles remain.
* :class:`ChainRingRouting` -- never use the wrap-around link (route as if
  the ring were a linear chain); deadlock-free, used by the second
  instantiation of :mod:`repro.ringnoc`.
"""

from __future__ import annotations

from typing import List

from repro.core.constituents import RoutingFunction
from repro.network.port import Direction, Port, PortName, trans
from repro.network.ring import Ring


class _RingRoutingBase(RoutingFunction):
    """Shared scaffolding of the ring routing functions."""

    def __init__(self, ring: Ring) -> None:
        self._ring = ring

    @property
    def topology(self) -> Ring:
        return self._ring

    @property
    def ring(self) -> Ring:
        return self._ring


class ClockwiseRingRouting(_RingRoutingBase):
    """Always route East (clockwise); uses the wrap-around link."""

    def name(self) -> str:
        return "Rclockwise"

    def _route_from_in_port(self, current: Port,
                            destination: Port) -> List[Port]:
        return [trans(current, PortName.EAST, Direction.OUT)]


class ShortestPathRingRouting(_RingRoutingBase):
    """Route in the direction of the shorter arc (ties go clockwise)."""

    def name(self) -> str:
        return "Rshortest-ring"

    def _route_from_in_port(self, current: Port,
                            destination: Port) -> List[Port]:
        clockwise = self._ring.clockwise_distance(current.x, destination.x)
        counter = self._ring.size - clockwise
        if clockwise <= counter or not self._ring.bidirectional:
            return [trans(current, PortName.EAST, Direction.OUT)]
        return [trans(current, PortName.WEST, Direction.OUT)]


class ChainRingRouting(_RingRoutingBase):
    """Never use the wrap-around link: route as on a linear chain.

    Requires a bidirectional ring.  East is taken when the destination index
    is larger, West when it is smaller -- exactly the deterministic
    1-dimensional dimension-order routing, which is deadlock-free.
    """

    def __init__(self, ring: Ring) -> None:
        super().__init__(ring)
        if not ring.bidirectional:
            raise ValueError("chain routing needs a bidirectional ring")

    def name(self) -> str:
        return "Rchain"

    def _route_from_in_port(self, current: Port,
                            destination: Port) -> List[Port]:
        if destination.x > current.x:
            return [trans(current, PortName.EAST, Direction.OUT)]
        return [trans(current, PortName.WEST, Direction.OUT)]
