"""Ports: the atomic resources of the port-level NoC formalization.

The paper (Section V.1) represents a port as a tuple ``<x, y, P, D>`` where
``x`` and ``y`` are the coordinates of the processing node, ``P`` is the port
name (East, West, North, South or Local) and ``D`` the direction (IN or OUT).
This module provides that tuple as a named tuple (its ``repr``, hash and
order are its field tuple's, computed in C; it also equals that tuple, has
``len`` 4, ``_replace`` and ``_asdict``, dumps to JSON as a list and must be
formatted with ``str``, not ``"%s" %``) with the port algebra of the paper:

* ``trans(p, name, direction)`` -- the port with the given name/direction in
  the *same* processing node as ``p``.
* ``next_in(p)`` -- the in-port of the neighbouring node connected to the
  out-port ``p`` (e.g. ``next_in(<0,0,E,OUT>) = <1,0,W,IN>``).
* ``opposite(name)`` -- the cardinal opposite of a port name.

Coordinate convention (matching the paper's routing function): ``x`` grows
towards the East and ``y`` grows towards the *South*; i.e. routing North
decreases ``y``.  This matches ``Rxy`` in Section V.3 where the next hop is
the North out-port when ``y(d) < y(p)``.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Tuple


class Direction(str, enum.Enum):
    """Direction of a port: input into the switch or output from it."""

    IN = "IN"
    OUT = "OUT"

    def __repr__(self) -> str:  # in the Port repr that ranks DFS successors
        return f"Direction.{self.name}"


class PortName(str, enum.Enum):
    """The five port names of a HERMES-style switch (Fig. 1b)."""

    EAST = "E"
    WEST = "W"
    NORTH = "N"
    SOUTH = "S"
    LOCAL = "L"

    def __repr__(self) -> str:  # in the Port repr that ranks DFS successors
        return f"PortName.{self.name}"


# Module-level aliases: reading an enum member off its class costs a
# Python-level attribute lookup, and the port predicates below are hot.
_IN, _OUT, _LOCAL = Direction.IN, Direction.OUT, PortName.LOCAL

#: Cardinal port names (every name except LOCAL).
CARDINALS: Tuple[PortName, ...] = (
    PortName.EAST,
    PortName.WEST,
    PortName.NORTH,
    PortName.SOUTH,
)

_OPPOSITE = {
    PortName.EAST: PortName.WEST,
    PortName.WEST: PortName.EAST,
    PortName.NORTH: PortName.SOUTH,
    PortName.SOUTH: PortName.NORTH,
}

#: Coordinate offset of the neighbouring node reached through a cardinal
#: out-port.  ``y`` grows towards the South (see module docstring).
OFFSETS = {
    PortName.EAST: (1, 0),
    PortName.WEST: (-1, 0),
    PortName.NORTH: (0, -1),
    PortName.SOUTH: (0, 1),
}


class Port(NamedTuple):
    """A port ``<x, y, P, D>`` of a processing node.

    Ports are immutable and hashable so they can be used as graph vertices,
    dictionary keys in network states and members of dependency-graph edge
    sets.
    """

    x: int
    y: int
    name: PortName
    direction: Direction

    # -- accessors mirroring the paper's notation ---------------------------
    @property
    def node(self) -> Tuple[int, int]:
        """Coordinates ``(x, y)`` of the processing node owning this port."""
        return (self.x, self.y)

    @property
    def is_input(self) -> bool:
        return self.direction is _IN

    @property
    def is_output(self) -> bool:
        return self.direction is _OUT

    @property
    def is_local(self) -> bool:
        return self.name is _LOCAL

    @property
    def is_cardinal(self) -> bool:
        return self.name is not _LOCAL

    def with_name(self, name: PortName, direction: Direction) -> "Port":
        """Return the port with the given name/direction on the same node."""
        return Port(self.x, self.y, name, direction)

    def __str__(self) -> str:
        return f"<{self.x},{self.y},{self.name.value},{self.direction.value}>"


# ---------------------------------------------------------------------------
# Port algebra (paper Section V.1)
# ---------------------------------------------------------------------------

def dir_of(p: Port) -> Direction:
    """``dir(p)`` of the paper: the direction of port ``p``."""
    return p.direction


def port_name(p: Port) -> PortName:
    """``port(p)`` of the paper: the name of port ``p``."""
    return p.name


def x_of(p: Port) -> int:
    """``x(p)`` of the paper."""
    return p.x


def y_of(p: Port) -> int:
    """``y(p)`` of the paper."""
    return p.y


def trans(p: Port, name: PortName, direction: Direction) -> Port:
    """``trans(p, PD)`` of the paper.

    Return the port specified by ``(name, direction)`` located in the same
    processing node as ``p``.
    """
    return Port(p.x, p.y, name, direction)


def opposite(name: PortName) -> PortName:
    """Return the opposite cardinal name; raises for LOCAL."""
    if name is PortName.LOCAL:
        raise ValueError("the Local port has no opposite")
    return _OPPOSITE[name]


def next_in(p: Port) -> Port:
    """``next_in(p)`` of the paper.

    Return the in-port physically connected to the out-port ``p``:

    * a cardinal out-port connects to the opposite in-port of the adjacent
      node (e.g. ``next_in(<0,0,E,OUT>) = <1,0,W,IN>``);
    * a local out-port connects to the local IP core; the paper treats it as
      a network sink, so requesting its ``next_in`` is an error.

    ``p`` must be an out-port.
    """
    if p.direction is not Direction.OUT:
        raise ValueError(f"next_in is only defined for out-ports, got {p}")
    if p.name is PortName.LOCAL:
        raise ValueError(
            f"local out-port {p} connects to the IP core, not to another port"
        )
    dx, dy = OFFSETS[p.name]
    return Port(p.x + dx, p.y + dy, opposite(p.name), Direction.IN)


def neighbour_node(p: Port) -> Tuple[int, int]:
    """Coordinates of the node an out-port ``p`` points towards."""
    if p.name is PortName.LOCAL:
        return p.node
    dx, dy = OFFSETS[p.name]
    return (p.x + dx, p.y + dy)


def parse_port(text: str) -> Port:
    """Parse the string form ``<x,y,P,D>`` back into a :class:`Port`.

    This is the inverse of :meth:`Port.__str__` and is used by trace readers
    and example scripts.
    """
    stripped = text.strip()
    if not (stripped.startswith("<") and stripped.endswith(">")):
        raise ValueError(f"not a port literal: {text!r}")
    fields = stripped[1:-1].split(",")
    if len(fields) != 4:
        raise ValueError(f"a port literal has four fields: {text!r}")
    x_str, y_str, name_str, dir_str = (field.strip() for field in fields)
    return Port(int(x_str), int(y_str), PortName(name_str), Direction(dir_str))
