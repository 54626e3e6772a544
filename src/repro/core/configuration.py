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
        # A flit at route index ``pos`` has ``ejected - pos`` movements
        # left; one still in the IP core (``pos == NOT_INJECTED == -1``)
        # has its injection on top, ``ejected + 1``: the same formula.
        positions = self.positions
        return len(positions) * self.ejected_position - sum(positions)

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


class WormQueues:
    """The pending worms of a configuration, as a switching step visits them.

    Built from flit positions by :meth:`Configuration.worm_queues`, then
    kept by the step that moves the flits, so that a step does not
    re-classify every pending worm (``docs/performance.md`` § 3 measures
    a rebuild at every step against them).  A copy rebuilds its own.  A
    travel's *rank* is its index in ``config.travels`` at build time
    (progress record ``records[rank]``); ``pending`` mirrors
    ``config.travels`` and ``ranks`` holds the rank of each of its
    travels.

    * ``moving``: ascending ranks of the routed pending travels with a
      flit out of the IP core (or all ejected, not yet collected);
    * ``waiting``: source port -> ascending ranks of the routed pending
      travels with every flit still in the IP core.
    """

    __slots__ = ("records", "pending", "ranks", "moving", "waiting",
                 "_progress")

    def __init__(self, config: "Configuration") -> None:
        self.pending: List[Travel] = list(config.travels)
        self.records: List[Optional[TravelProgress]] = [
            config.progress.get(travel.travel_id) for travel in self.pending]
        self.ranks: List[int] = list(range(len(self.pending)))
        self.moving: List[int] = []
        self.waiting: Dict[Port, List[int]] = {}
        self._progress = config.progress
        for rank, record in enumerate(self.records):
            if record is None:
                continue
            if record.positions[0] == NOT_INJECTED:
                self.waiting.setdefault(record.route[0], []).append(rank)
            else:
                self.moving.append(rank)

    def describes(self, config: "Configuration") -> bool:
        """Do these queues still mirror ``config``: the same progress
        mapping and, travel by travel, the same ``T``?  (The list
        comparison runs in C, by identity first.)"""
        return (self._progress is config.progress
                and self.pending == config.travels)

    def travel_ids(self) -> Tuple[List[int], Dict[Port, List[int]]]:
        """``moving`` and ``waiting`` by travel id, to compare queues."""
        def ids(ranks: List[int]) -> List[int]:
            return [self.records[rank].travel.travel_id for rank in ranks]
        return (ids(self.moving),
                {port: ids(ranks) for port, ranks in self.waiting.items()})


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
        self._queues: Optional[WormQueues] = None

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

    def worm_queues(self) -> WormQueues:
        """The :class:`WormQueues` of this configuration, built from the
        flit positions when missing or when ``T`` or the progress mapping
        was changed by anything but the step that keeps them.  (A progress
        record edited in place is not seen here; :meth:`check_consistency`
        compares the kept queues with a rebuild.)"""
        queues = self._queues
        if queues is None or not queues.describes(self):
            queues = self._queues = WormQueues(self)
        return queues

    # -- consistency ---------------------------------------------------------------
    def check_consistency(self) -> None:
        """Check the invariants linking ``T``, ``ST`` and the progress records.

        * every pending, routed travel has a progress record;
        * flit positions respect the worm order (no overtaking);
        * the flits recorded at position ``i`` of a travel are indeed buffered
          at ``route[i]`` in the network state, and vice versa;
        * the state's ``flit_count`` equals the flits its buffers hold;
        * kept :class:`WormQueues` equal the ones the positions give.
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
        if self.state.flit_count != self.state.total_flits():
            raise AssertionError(
                f"flit count {self.state.flit_count} but "
                f"{self.state.total_flits()} flits buffered")
        queues = self._queues
        if queues is not None and queues.describes(self):
            kept, rebuilt = queues.travel_ids(), WormQueues(self).travel_ids()
            if kept != rebuilt:
                raise AssertionError(
                    f"kept worm queues {kept} but the flit positions "
                    f"give {rebuilt}")

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
