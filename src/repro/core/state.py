"""Network state ``ST``: the list of all ports with their buffers.

The paper defines the state as "the list of all the ports of the network.
Each port is associated to the list of its buffers" (Section III-B).  We
represent it as a mapping from :class:`~repro.network.port.Port` to
:class:`~repro.network.buffers.PortState` and provide the availability
queries needed by the wormhole switching policy and by the deadlock
argument of Section IV-A (the witness set ``P`` of *unavailable* ports).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.core.errors import SwitchingError
from repro.network.buffers import PortState, refusal
from repro.network.flit import Flit
from repro.network.port import Port
from repro.network.topology import Topology


class NetworkState:
    """The dynamic state of every port of the network."""

    def __init__(self, port_states: Mapping[Port, PortState]) -> None:
        self._states: Dict[Port, PortState] = dict(port_states)
        #: Flits buffered anywhere, kept by the mutators of this class
        #: (:meth:`total_flits` recounts them from the buffers).
        self.flit_count = sum(len(state.buffer)
                              for state in self._states.values())

    # -- construction -----------------------------------------------------------
    @classmethod
    def empty(cls, topology: Topology, capacity: int = 2,
              capacities: Optional[Mapping[Port, int]] = None) -> "NetworkState":
        """An all-empty state for ``topology``.

        ``capacity`` is the default number of 1-flit buffers per port
        (Fig. 1b shows 2 buffers per port); ``capacities`` overrides it per
        port.
        """
        states: Dict[Port, PortState] = {}
        for port in topology.ports:
            port_capacity = capacity
            if capacities is not None and port in capacities:
                port_capacity = capacities[port]
            states[port] = PortState.with_capacity(port_capacity)
        return cls(states)

    def copy(self) -> "NetworkState":
        return NetworkState({port: state.copy()
                             for port, state in self._states.items()})

    # -- access -------------------------------------------------------------------
    def __getitem__(self, port: Port) -> PortState:
        return self._states[port]

    def __contains__(self, port: Port) -> bool:
        return port in self._states

    def __iter__(self) -> Iterator[Port]:
        return iter(self._states)

    def __len__(self) -> int:
        return len(self._states)

    @property
    def ports(self) -> List[Port]:
        return list(self._states)

    def items(self) -> Iterable[Tuple[Port, PortState]]:
        return self._states.items()

    # -- availability (deadlock argument, Section IV-A) ----------------------------
    def is_available(self, port: Port) -> bool:
        """A port is available if it is unowned and has a free buffer."""
        return self._states[port].is_available

    def accepts(self, port: Port, travel_id: int) -> bool:
        """Can ``port`` accept one flit of travel ``travel_id`` right now?"""
        return self._states[port].accepts(travel_id)

    def unavailable_ports(self) -> List[Port]:
        """The witness set ``P`` used in the necessity proof of Theorem 1."""
        return [port for port, state in self._states.items()
                if not state.is_available]

    def occupied_ports(self) -> List[Port]:
        """Ports currently holding at least one flit."""
        return [port for port, state in self._states.items()
                if not state.buffer.is_empty]

    # -- aggregate queries -----------------------------------------------------------
    def total_flits(self) -> int:
        """Number of flits currently buffered anywhere in the network."""
        return sum(state.buffer.occupancy for state in self._states.values())

    def flits_of(self, travel_id: int) -> List[Tuple[Port, Flit]]:
        """All buffered flits of the given travel, with their ports."""
        result: List[Tuple[Port, Flit]] = []
        for port, state in self._states.items():
            for flit in state.buffer:
                if flit.travel_id == travel_id:
                    result.append((port, flit))
        return result

    def is_empty(self) -> bool:
        """True when no port holds any flit (the network has been evacuated)."""
        return all(state.is_empty for state in self._states.values())

    def occupancy_map(self) -> Dict[Port, int]:
        """Port -> number of buffered flits (used by metrics and traces)."""
        return {port: state.buffer.occupancy
                for port, state in self._states.items()}

    # -- mutation -----------------------------------------------------------------------
    def accept_flit(self, port: Port, flit: Flit) -> None:
        self.move_flit(None, port, flit)

    def move_flit(self, source: Optional[Port], target: Optional[Port],
                  flit: Flit) -> bool:
        """Move ``flit`` one step along its route, in one call.

        ``source`` is the port whose head flit it must be (``None``: the
        IP core), else :class:`SwitchingError`; ``target`` the port it
        enters (``None``: ejected), which raises
        :class:`~repro.network.buffers.FlitBufferError` when full or owned
        by another travel.  A refused move changes nothing.  Returns
        whether ``source`` drained (and so lost its owner).
        """
        if target is not None:
            target_state = self._states[target]
            owner = target_state.owner
            buffer = target_state.buffer
            if ((owner is not None and owner != flit.travel_id)
                    or len(buffer.slots) >= buffer.capacity):
                raise refusal(owner, flit)
        drained = False
        if source is None:
            self.flit_count += 1
        else:
            source_state = self._states[source]
            slots = source_state.buffer.slots
            head = slots[0] if slots else None
            if head is not flit and (head is None
                                     or head.travel_id != flit.travel_id
                                     or head.index != flit.index):
                raise SwitchingError(
                    f"expected flit {flit.index} of travel {flit.travel_id} "
                    f"at {source}, found {head}")
            flit = slots.popleft()
            if not slots:
                source_state.owner = None
                drained = True
        if target is None:
            self.flit_count -= 1
        else:
            buffer.slots.append(flit)
            target_state.owner = flit.travel_id
        return drained

    def __str__(self) -> str:
        occupied = [f"{port}: {state}" for port, state in self._states.items()
                    if not state.buffer.is_empty]
        if not occupied:
            return "NetworkState(empty)"
        return "NetworkState(\n  " + "\n  ".join(occupied) + "\n)"
