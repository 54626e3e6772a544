"""Store-and-forward packet switching.

The whole packet is buffered in a single port and only advances to the next
port of its route when that port can hold *all* of its flits.  This is the
classical alternative to wormhole switching; it needs deeper buffers but its
messages never span several ports, so the deadlock analysis degenerates to
the node-level formulation of Dally & Seitz.

It is included as an ablation baseline: the same routing function and the
same dependency-graph condition apply, and the evacuation measure of
obligation (C-5) decreases for it as well (the paper notes C-5 is proven
"nearly generically").
"""

from __future__ import annotations

from typing import Optional

from repro.core.configuration import (
    Configuration,
    NOT_INJECTED,
    TravelProgress,
)
from repro.core.constituents import SwitchingPolicy
from repro.core.errors import SwitchingError
from repro.switching.base import SingleTravelStepper, collect_arrivals


class StoreAndForwardSwitching(SwitchingPolicy, SingleTravelStepper):
    """Store-and-forward: packets move as indivisible units."""

    def name(self) -> str:
        return "Ssaf"

    # -- SwitchingPolicy --------------------------------------------------------
    def advance(self, config: Configuration) -> None:
        for travel in config.travels:
            self._advance_packet(config, travel.travel_id)
        collect_arrivals(config)

    def can_progress(self, config: Configuration) -> bool:
        return any(self._can_packet_advance(config, travel.travel_id)
                   for travel in config.travels)

    # -- SingleTravelStepper -------------------------------------------------------
    def advance_travel(self, config: Configuration,
                       travel_id: int) -> Optional[Configuration]:
        if not self._can_packet_advance(config, travel_id):
            return None
        new_config = config.copy()
        if not self._advance_packet(new_config, travel_id):
            return None
        collect_arrivals(new_config)
        return new_config

    # -- internals ---------------------------------------------------------------------
    @staticmethod
    def _packet_position(record: TravelProgress) -> int:
        """The single position shared by every flit of the packet."""
        positions = set(record.positions)
        if len(positions) != 1:
            raise SwitchingError(
                "store-and-forward packets occupy exactly one position, "
                f"found {sorted(positions)}")
        return next(iter(positions))

    def _can_packet_advance(self, config: Configuration,
                            travel_id: int) -> bool:
        record = config.progress.get(travel_id)
        if record is None:
            return False
        position = self._packet_position(record)
        route = record.route
        if position == record.ejected_position:
            return True
        if position == len(route) - 1:
            return True
        target_index = 0 if position == NOT_INJECTED else position + 1
        target = route[target_index]
        state = config.state[target]
        if state.owner not in (None, travel_id):
            return False
        return state.buffer.free_slots >= len(record.positions)

    def _advance_packet(self, config: Configuration, travel_id: int) -> bool:
        record = config.progress.get(travel_id)
        if record is None or not self._can_packet_advance(config, travel_id):
            return False
        position = self._packet_position(record)
        route = record.route
        num_flits = len(record.positions)

        if position == record.ejected_position:
            return False
        source = None if position == NOT_INJECTED else route[position]
        if position == len(route) - 1:
            # Eject the whole packet.
            target_index, target = record.ejected_position, None
        else:
            target_index = position + 1  # 0 from NOT_INJECTED (-1)
            target = route[target_index]
        for flit in record.flits:
            config.state.move_flit(source, target, flit)
        record.positions[:] = [target_index] * num_flits
        return True

    def required_capacity(self, config: Configuration) -> int:
        """Minimum port capacity needed to carry the largest packet."""
        return max((travel.num_flits for travel in config.travels), default=1)
