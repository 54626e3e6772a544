"""Dimension-order routing, parameterised by the dimension order.

``DimensionOrderRouting(mesh, order="xy")`` is the paper's XY routing;
``order="yx"`` routes along the y-axis first.  Both are deterministic and
minimal, and both have acyclic port dependency graphs (the flows argument of
the paper works symmetrically for YX with the roles of the axes swapped).

The ``s R d`` reachability predicate (the paper calls it "quite technical",
Section III-B) is the one every routing has: a pair (port, destination) is
reachable iff a packet destined to ``d`` can actually find itself at that
port during a route, as the route table's walk finds
(:mod:`repro.routing.base`).  For XY routing, for example, a packet can only occupy a West in-port (i.e. be travelling East)
if its destination column is not to the West, and it can only occupy a
vertical port if it has already reached its destination column.
"""

from __future__ import annotations

from typing import List

from repro.network.mesh import Mesh2D
from repro.network.port import Port, PortName
from repro.routing.base import MeshRoutingFunction


class DimensionOrderRouting(MeshRoutingFunction):
    """Deterministic dimension-order routing over a 2D mesh."""

    def __init__(self, mesh: Mesh2D, order: str = "xy") -> None:
        super().__init__(mesh)
        if order not in ("xy", "yx"):
            raise ValueError("order must be 'xy' or 'yx'")
        self.order = order

    def name(self) -> str:
        return f"R{self.order}"

    def _route_from_in_port(self, current: Port,
                            destination: Port) -> List[Port]:
        if self.order == "xy":
            name = self._xy_direction(current, destination)
        else:
            name = self._yx_direction(current, destination)
        return [self._out_port(current, name)]

    def _xy_direction(self, current: Port, destination: Port) -> PortName:
        """First reduce the x offset, then the y offset (paper's ``Rxy``)."""
        if destination.x < current.x:
            return PortName.WEST
        if destination.x > current.x:
            return PortName.EAST
        if destination.y < current.y:
            return PortName.NORTH
        if destination.y > current.y:
            return PortName.SOUTH
        return PortName.LOCAL  # same node: handled by the base class

    def _yx_direction(self, current: Port, destination: Port) -> PortName:
        """First reduce the y offset, then the x offset."""
        if destination.y < current.y:
            return PortName.NORTH
        if destination.y > current.y:
            return PortName.SOUTH
        if destination.x < current.x:
            return PortName.WEST
        if destination.x > current.x:
            return PortName.EAST
        return PortName.LOCAL
