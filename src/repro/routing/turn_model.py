"""Turn-model partially adaptive routing functions.

The paper's method "currently applies to deterministic routing algorithms"
(Section IX) and names adaptive routing as future work.  These three
classical turn-model algorithms (Glass & Ni) are included as that extension:
they are *partially adaptive* -- several minimal next hops may be allowed --
yet their dependency graphs remain acyclic because one class of turns is
forbidden:

* **west-first** -- a packet travels west only at the very beginning of its
  route; once it has moved in any other direction it never turns west.
  Port-level: whenever the destination lies to the west, the only allowed
  hop is the West out-port; otherwise every minimal direction is allowed.
* **north-last** -- a packet turns north only as the last leg of its route:
  the North out-port is allowed only when north is the only remaining
  minimal direction.
* **negative-first** -- a packet first travels in the negative directions
  (West/North, i.e. decreasing coordinates) and only then in the positive
  ones.
* **odd-even** (Chiu) -- instead of banning a turn class globally, the bans
  alternate by column parity: eastbound packets may turn vertical only in
  odd columns (no EN/ES turn in an even column), westbound packets only in
  even columns (no NW/SW turn in an odd column).  Any dependency cycle
  would need both an east-to-vertical and a vertical-to-west turn in its
  rightmost column, which the parity split makes impossible, so the graph
  stays acyclic while no single turn is forbidden everywhere.

A turn-model function is only meaningful on ports a packet can actually
occupy, which is what ``s R d`` holds for every routing: the
(port, destination) pairs occurring on routes from local in-ports
(:mod:`repro.routing.base`).
"""

from __future__ import annotations

from typing import List

from repro.network.port import Port, PortName
from repro.routing.base import MeshRoutingFunction

# Module-level aliases: reading an enum member off its class costs a
# Python-level attribute lookup, and odd_even_directions runs once per
# route-table visit of a fault-aware odd-even routing.
_NORTH, _SOUTH, _EAST, _WEST, _LOCAL = (
    PortName.NORTH, PortName.SOUTH, PortName.EAST, PortName.WEST,
    PortName.LOCAL)


class _TurnModelRouting(MeshRoutingFunction):
    """Common scaffolding of the three turn models."""

    @property
    def is_deterministic(self) -> bool:
        return False

    def _route_from_in_port(self, current: Port,
                            destination: Port) -> List[Port]:
        names = self._allowed_directions(current, destination)
        return [self._out_port(current, name) for name in names]

    def _allowed_directions(self, current: Port,
                            destination: Port) -> List[PortName]:
        raise NotImplementedError


class WestFirstRouting(_TurnModelRouting):
    """West-first turn-model routing."""

    def name(self) -> str:
        return "Rwest-first"

    def _allowed_directions(self, current: Port,
                            destination: Port) -> List[PortName]:
        minimal = self._minimal_directions(current, destination)
        if PortName.WEST in minimal:
            return [PortName.WEST]
        return minimal


class NorthLastRouting(_TurnModelRouting):
    """North-last turn-model routing."""

    def name(self) -> str:
        return "Rnorth-last"

    def _allowed_directions(self, current: Port,
                            destination: Port) -> List[PortName]:
        minimal = self._minimal_directions(current, destination)
        without_north = [name for name in minimal if name is not PortName.NORTH]
        if without_north:
            return without_north
        return minimal


class NegativeFirstRouting(_TurnModelRouting):
    """Negative-first turn-model routing (negative = West and North)."""

    def name(self) -> str:
        return "Rnegative-first"

    def _allowed_directions(self, current: Port,
                            destination: Port) -> List[PortName]:
        minimal = self._minimal_directions(current, destination)
        negative = [name for name in minimal
                    if name in (PortName.WEST, PortName.NORTH)]
        if negative:
            return negative
        return minimal


def odd_even_directions(current: Port, destination: Port) -> List[PortName]:
    """The odd-even allowed-direction set at ``current`` (Chiu's ROUTE).

    Eastbound (``dx > 0``): vertical movement is allowed only in odd
    columns -- or at the source node itself -- and the final East hop into
    an even destination column is deferred until the vertical movement is
    complete (``dx == 1`` with ``dy != 0`` may not take East when the
    destination column is even), since turning vertical there would be a
    forbidden EN/ES turn.  Westbound (``dx < 0``): West is always allowed
    and vertical movement only in even columns (NW/SW turns are forbidden
    in odd columns).  The port level sees the arrival direction through
    the in-port name; "at the source" is the local in-port.
    """
    dx = destination.x - current.x
    dy = destination.y - current.y
    vertical = _NORTH if dy < 0 else _SOUTH
    if dx == 0:
        return [vertical]
    allowed: List[PortName] = []
    if dx > 0:
        at_source = current.name is _LOCAL
        if dy != 0 and (current.x % 2 == 1 or at_source):
            allowed.append(vertical)
        if dy == 0 or destination.x % 2 == 1 or dx != 1:
            allowed.append(_EAST)
    else:
        allowed.append(_WEST)
        if dy != 0 and current.x % 2 == 0:
            allowed.append(vertical)
    return allowed


class OddEvenRouting(_TurnModelRouting):
    """Odd-even turn-model routing (see :func:`odd_even_directions`)."""

    def name(self) -> str:
        return "Rodd-even"

    def _allowed_directions(self, current: Port,
                            destination: Port) -> List[PortName]:
        return odd_even_directions(current, destination)
