"""Flit buffers and per-port state.

The paper models the network state ``ST`` as "the list of all the ports of
the network.  Each port is associated to the list of its buffers"
(Section III-B).  Each port has an arbitrary (but fixed) number of 1-flit
buffers, and "a port can only accept flits of at most one packet"
(Section V.4) -- the classic wormhole constraint that a port is *owned* by
the worm currently traversing it.

:class:`FlitBuffer` is the FIFO of 1-flit slots attached to one port and
:class:`PortState` couples it with the ownership information needed by the
wormhole switching policy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterator, Optional

from repro.network.flit import Flit


class FlitBufferError(Exception):
    """Raised on illegal buffer operations (overflow, underflow, ownership)."""


class FlitBuffer:
    """A bounded FIFO of 1-flit buffers attached to a port.

    The capacity is the number of 1-flit buffers of the port (paper: "Each
    port has an arbitrary number of 1-flit buffers"), and fixed.  ``slots``
    is the FIFO, head first.  The engine moves flits with
    :meth:`~repro.core.state.NetworkState.move_flit`, which writes
    ``slots`` directly; :meth:`push` and :meth:`pop` are the checked FIFO
    operations behind :meth:`PortState.accept` and :meth:`PortState.release`.
    """

    __slots__ = ("capacity", "slots")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("a port has at least one buffer")
        self.capacity = int(capacity)
        self.slots: Deque[Flit] = deque()

    # -- inspection ---------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return len(self.slots)

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self.slots)

    @property
    def is_empty(self) -> bool:
        return not self.slots

    @property
    def is_full(self) -> bool:
        return len(self.slots) >= self.capacity

    def __iter__(self) -> Iterator[Flit]:
        return iter(self.slots)

    def __len__(self) -> int:
        return len(self.slots)

    # -- mutation ------------------------------------------------------------
    def push(self, flit: Flit) -> None:
        """Append ``flit`` at the tail of the FIFO."""
        if len(self.slots) >= self.capacity:
            raise FlitBufferError(f"buffer overflow (capacity {self.capacity})")
        self.slots.append(flit)

    def pop(self) -> Flit:
        """Remove and return the flit at the head of the FIFO."""
        if not self.slots:
            raise FlitBufferError("buffer underflow")
        return self.slots.popleft()

    def copy(self) -> "FlitBuffer":
        clone = FlitBuffer(self.capacity)
        clone.slots = deque(self.slots)
        return clone


@dataclass
class PortState:
    """State attached to one port: its buffers and its current owner.

    ``owner`` is the id of the travel whose worm currently occupies the port
    (``None`` when the port is free).  The wormhole constraint "a port can
    only accept flits of at most one packet" is enforced here.
    """

    buffer: FlitBuffer
    owner: Optional[int] = None

    @classmethod
    def with_capacity(cls, capacity: int) -> "PortState":
        return cls(buffer=FlitBuffer(capacity))

    # -- availability --------------------------------------------------------
    def accepts(self, travel_id: int) -> bool:
        """Can this port accept one more flit of travel ``travel_id``?

        A port accepts a flit if it has at least one available buffer
        (paper Section V.4) and it is not owned by a different packet.
        """
        owner = self.owner
        return ((owner is None or owner == travel_id)
                and len(self.buffer.slots) < self.buffer.capacity)

    @property
    def is_available(self) -> bool:
        """Available in the deadlock-argument sense: free buffer & unowned."""
        return self.owner is None and not self.buffer.is_full

    @property
    def is_empty(self) -> bool:
        return self.buffer.is_empty and self.owner is None

    # -- mutation -------------------------------------------------------------
    # :meth:`accept` and :meth:`release` drive one port on its own: the
    # tests and their reference step use them.  They bypass
    # ``NetworkState.flit_count``; the engine moves every flit with
    # :meth:`~repro.core.state.NetworkState.move_flit`.
    def accept(self, flit: Flit) -> None:
        """Accept one flit, acquiring ownership of the port for its travel."""
        if not self.accepts(flit.travel_id):
            raise refusal(self.owner, flit)
        self.buffer.push(flit)
        self.owner = flit.travel_id

    def release(self) -> Flit:
        """Remove the head flit; release ownership when the port drains."""
        flit = self.buffer.pop()
        if self.buffer.is_empty:
            self.owner = None
        return flit

    def copy(self) -> "PortState":
        return PortState(buffer=self.buffer.copy(), owner=self.owner)

    def __str__(self) -> str:
        flits = " ".join(str(f) for f in self.buffer)
        owner = f" owner={self.owner}" if self.owner is not None else ""
        return f"[{flits}]{owner} ({len(self.buffer)}/{self.buffer.capacity})"


def refusal(owner: Optional[int], flit: Flit) -> FlitBufferError:
    """The error of a port (owned by ``owner``) refusing ``flit``."""
    return FlitBufferError(f"port owned by travel {owner} or full; "
                           f"cannot accept flit of travel {flit.travel_id}")
