"""Unrestricted minimal adaptive routing: the deadlock-prone baseline.

Every minimal direction is allowed at every hop.  On any mesh of at least
2x2 this creates cycles in the port dependency graph (e.g. the four "turns"
around a single mesh square), so the routing function fails obligation
(C-3); the Theorem 1 benchmarks use it to exercise

* the cycle finders (a cycle is reported),
* the sufficiency witness construction (the cycle is turned into a concrete
  deadlock configuration), and
* the state-space explorer (a deadlock is reachable for suitable workloads).
"""

from __future__ import annotations

from typing import List

from repro.network.port import Port, PortName
from repro.routing.base import MeshRoutingFunction


class FullyAdaptiveMinimalRouting(MeshRoutingFunction):
    """All minimal directions allowed at every hop (no turn restriction)."""

    def name(self) -> str:
        return "Radaptive"

    @property
    def is_deterministic(self) -> bool:
        return False

    def _route_from_in_port(self, current: Port,
                            destination: Port) -> List[Port]:
        names = self._minimal_directions(current, destination)
        return [self._out_port(current, name) for name in names]


class ZigZagRouting(MeshRoutingFunction):
    """A *deterministic* deadlock-prone routing function.

    It alternates the dimension order per source-column parity: packets
    starting in even columns route XY, packets starting in odd columns route
    YX.  Because the choice depends on the destination's column parity at
    every port (the function only sees the current port and the
    destination), XY and YX dependencies mix and the dependency graph has
    cycles on meshes of at least 3x3.  Being deterministic, it is also
    eligible for the sufficiency construction of Theorem 1, which needs
    ``R`` to be deterministic.
    """

    def name(self) -> str:
        return "Rzigzag"

    def _route_from_in_port(self, current: Port,
                            destination: Port) -> List[Port]:
        if destination.x % 2 == 0:
            order = ("x", "y")
        else:
            order = ("y", "x")
        for axis in order:
            if axis == "x":
                if destination.x < current.x:
                    return [self._out_port(current, PortName.WEST)]
                if destination.x > current.x:
                    return [self._out_port(current, PortName.EAST)]
            else:
                if destination.y < current.y:
                    return [self._out_port(current, PortName.NORTH)]
                if destination.y > current.y:
                    return [self._out_port(current, PortName.SOUTH)]
        return [self._out_port(current, PortName.LOCAL)]
