"""Configurations ``σ = <T, ST, A>`` and per-travel progress records.

A configuration (paper Section III-B) couples

* ``T`` -- the travels still being sent across the network,
* ``ST`` -- the network state (port buffers), and
* ``A`` -- the travels that have arrived at their destination.

Because HERMES uses wormhole switching, a travel's message is spread over
several ports as a *worm* of flits.  :class:`TravelProgress` records where
each flit of a travel currently is along its route; together with the port
buffers of ``ST`` it fully determines the dynamic state.  The invariants
linking the two views are checked by :meth:`Configuration.check_consistency`
and exercised by the property-based tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.state import NetworkState
from repro.core.travel import Travel, check_unique_ids
from repro.network.flit import Flit
from repro.network.port import Port

#: Sentinel position of a flit that has not yet entered the network.
NOT_INJECTED = -1


@dataclass
class TravelProgress:
    """Dynamic progress of one travel's flits along its route.

    ``positions[i]`` is the index (into the travel's route) of the port
    currently holding flit ``i``; :data:`NOT_INJECTED` (-1) means the flit is
    still queued at the source IP core, and ``len(route)`` means the flit has
    been ejected at the destination.  ``route``, ``ejected_position`` and
    ``flits`` are fixed by the travel: they are set once, and a copy shares
    them.
    """

    travel: Travel
    positions: List[int]
    #: The travel's flits, header first (built from ``travel.flits()``).
    flits: Tuple[Flit, ...] = field(default=(), compare=False, repr=False)
    route: Tuple[Port, ...] = field(init=False, compare=False, repr=False)
    ejected_position: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.travel.route is None:
            raise ValueError(
                f"travel {self.travel.travel_id} needs a route before it "
                f"can progress")
        self.route = self.travel.route
        self.ejected_position = len(self.route)
        if not self.flits:
            self.flits = tuple(self.travel.flits())

    @classmethod
    def initial(cls, travel: Travel) -> "TravelProgress":
        return cls(travel=travel,
                   positions=[NOT_INJECTED] * travel.num_flits)

    # -- derived views ----------------------------------------------------------
    @property
    def header_position(self) -> int:
        """Route index of the header flit (flit 0)."""
        return self.positions[0]

    @property
    def header_port(self) -> Optional[Port]:
        """The port currently holding the header, or ``None``."""
        pos = self.header_position
        if pos == NOT_INJECTED or pos >= self.ejected_position:
            return None
        return self.route[pos]

    @property
    def is_started(self) -> bool:
        """At least one flit has entered the network."""
        return any(pos != NOT_INJECTED for pos in self.positions)

    @property
    def is_arrived(self) -> bool:
        """All flits have been ejected at the destination."""
        return (self.positions.count(self.ejected_position)
                == len(self.positions))

    @property
    def flits_in_network(self) -> int:
        return sum(1 for pos in self.positions
                   if NOT_INJECTED < pos < self.ejected_position)

    @property
    def flits_ejected(self) -> int:
        return sum(1 for pos in self.positions if pos == self.ejected_position)

    @property
    def remaining_route_length(self) -> int:
        """``|t.r|`` of the paper: hops the *header* still has to make.

        The header at route index ``i`` still has to traverse
        ``len(route) - 1 - i`` hops plus the final ejection; before injection
        the full route remains.
        """
        pos = self.header_position
        if pos == self.ejected_position:
            return 0
        if pos == NOT_INJECTED:
            return len(self.route)
        return len(self.route) - pos

    def remaining_flit_hops(self) -> int:
        """Total remaining movements of all flits (injections + hops + ejections).

        This is the refined termination measure: every flit movement
        (entering the network, advancing one hop, or being ejected)
        decreases it by exactly one.
        """
        ejected = self.ejected_position
        total = 0
        for pos in self.positions:
            if pos == NOT_INJECTED:
                total += ejected + 1
            else:
                total += ejected - pos
        return total

    def occupied_route_indices(self) -> List[int]:
        """Route indices currently holding at least one flit of this travel."""
        return sorted({pos for pos in self.positions
                       if NOT_INJECTED < pos < self.ejected_position})

    def check_flit_order(self) -> None:
        """Flits never overtake: positions are non-increasing from header to tail."""
        for earlier, later in zip(self.positions, self.positions[1:]):
            if later > earlier:
                raise AssertionError(
                    f"flit order violated for travel {self.travel.travel_id}: "
                    f"{self.positions}"
                )

    def copy(self) -> "TravelProgress":
        return TravelProgress(travel=self.travel, positions=list(self.positions),
                              flits=self.flits)


class Configuration:
    """A GeNoC configuration ``σ = <T, ST, A>``."""

    def __init__(self, travels: Sequence[Travel], state: NetworkState,
                 arrived: Optional[Sequence[Travel]] = None,
                 progress: Optional[Dict[int, TravelProgress]] = None) -> None:
        check_unique_ids(list(travels) + list(arrived or []))
        self.travels: List[Travel] = list(travels)
        self.state = state
        self.arrived: List[Travel] = list(arrived or [])
        self.progress: Dict[int, TravelProgress] = dict(progress or {})

    # -- the paper's field names -------------------------------------------------
    @property
    def T(self) -> List[Travel]:  # noqa: N802 - paper notation
        return self.travels

    @property
    def ST(self) -> NetworkState:  # noqa: N802 - paper notation
        return self.state

    @property
    def A(self) -> List[Travel]:  # noqa: N802 - paper notation
        return self.arrived

    # -- queries --------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        return len(self.travels)

    @property
    def arrived_count(self) -> int:
        return len(self.arrived)

    def travel_by_id(self, travel_id: int) -> Travel:
        for travel in self.travels:
            if travel.travel_id == travel_id:
                return travel
        for travel in self.arrived:
            if travel.travel_id == travel_id:
                return travel
        raise KeyError(f"no travel with id {travel_id}")

    def all_routed(self) -> bool:
        return all(travel.has_route for travel in self.travels)

    def is_finished(self) -> bool:
        """True when there is nothing left to send (``σ.T = ∅``)."""
        return not self.travels

    # -- consistency ---------------------------------------------------------------
    def check_consistency(self) -> None:
        """Check the invariants linking ``T``, ``ST`` and the progress records.

        * every pending, routed travel has a progress record;
        * flit positions respect the worm order (no overtaking);
        * the flits recorded at position ``i`` of a travel are indeed buffered
          at ``route[i]`` in the network state, and vice versa.
        """
        expected: Dict[Port, Dict[int, int]] = {}
        for travel in self.travels:
            if not travel.has_route:
                continue
            if travel.travel_id not in self.progress:
                raise AssertionError(
                    f"travel {travel.travel_id} is routed but has no progress record"
                )
            record = self.progress[travel.travel_id]
            record.check_flit_order()
            for pos in record.positions:
                if NOT_INJECTED < pos < record.ejected_position:
                    port = record.route[pos]
                    expected.setdefault(port, {}).setdefault(travel.travel_id, 0)
                    expected[port][travel.travel_id] += 1
        for port, state in self.state.items():
            actual: Dict[int, int] = {}
            for flit in state.buffer:
                actual.setdefault(flit.travel_id, 0)
                actual[flit.travel_id] += 1
            if actual != expected.get(port, {}):
                raise AssertionError(
                    f"state/progress mismatch at {port}: "
                    f"buffered {actual}, progress says {expected.get(port, {})}"
                )
            if len(actual) > 1:
                raise AssertionError(
                    f"port {port} holds flits of more than one packet: {actual}"
                )

    def copy(self) -> "Configuration":
        return Configuration(
            travels=list(self.travels),
            state=self.state.copy(),
            arrived=list(self.arrived),
            progress={tid: record.copy()
                      for tid, record in self.progress.items()},
        )

    def __str__(self) -> str:
        return (f"Configuration(T={len(self.travels)}, "
                f"A={len(self.arrived)}, "
                f"flits in network={self.state.total_flits()})")


def initial_configuration(travels: Sequence[Travel],
                          state: NetworkState) -> Configuration:
    """The initial configuration: all travels pending, empty state, no arrivals."""
    return Configuration(travels=travels, state=state, arrived=[])
