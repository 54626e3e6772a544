"""Flits: the unit of transfer of wormhole switching.

HERMES uses wormhole switching (paper Section II): a message is decomposed
into flits.  The header flit carries the routing information (in our model,
the travel it belongs to), the following body flits carry the payload and the
last flit is the tail.  A message of ``n`` flits is modelled as one header,
``n - 2`` body flits and one tail (a 1-flit message is a single header that is
also the tail).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class FlitKind(str, enum.Enum):
    """Role of a flit inside its worm."""

    HEADER = "H"
    BODY = "B"
    TAIL = "T"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FlitKind.{self.name}"


@dataclass(frozen=True)
class Flit:
    """A single flit of a message.

    Attributes
    ----------
    travel_id:
        Identifier of the travel (message) this flit belongs to.
    index:
        Position of the flit inside its message, starting at 0 for the
        header.
    kind:
        Whether this flit is the header, a body flit or the tail.
    """

    travel_id: int
    index: int
    kind: FlitKind

    @property
    def is_header(self) -> bool:
        return self.kind is FlitKind.HEADER

    def __str__(self) -> str:
        return f"{self.kind.value}{self.travel_id}.{self.index}"


def make_flits(travel_id: int, num_flits: int) -> list:
    """Build the flit sequence of a ``num_flits``-flit message.

    The first flit is the header and the last the tail; a single-flit message
    consists of one flit that is simultaneously header and tail (we classify
    it as a header, and the switching policy treats a header with no
    followers as also being the tail).
    """
    if num_flits < 1:
        raise ValueError("a message has at least one flit")
    flits = []
    for index in range(num_flits):
        if index == 0:
            kind = FlitKind.HEADER
        elif index == num_flits - 1:
            kind = FlitKind.TAIL
        else:
            kind = FlitKind.BODY
        flits.append(Flit(travel_id=travel_id, index=index, kind=kind))
    return flits
