"""Shared infrastructure of the switching policies."""

from __future__ import annotations

import abc
from typing import List, Optional

from repro.core.configuration import Configuration


def collect_arrivals(config: Configuration) -> None:
    """Move fully-ejected travels from ``T`` to ``A``."""
    still_pending = []
    for travel in config.travels:
        record = config.progress.get(travel.travel_id)
        if record is not None and record.is_arrived:
            config.arrived.append(travel)
        else:
            still_pending.append(travel)
    config.travels[:] = still_pending


class SingleTravelStepper(abc.ABC):
    """A switching policy that can advance a single chosen travel.

    The GeNoC switching step advances *every* message by at most one hop in a
    fixed order; for the exhaustive state-space exploration of
    :mod:`repro.checking.bmc` we additionally need the finer-grained
    transition "exactly one chosen message advances by one hop", so that all
    interleavings of message progress are explored.
    """

    @abc.abstractmethod
    def advance_travel(self, config: Configuration,
                       travel_id: int) -> Optional[Configuration]:
        """Advance only the given travel by one hop.

        Returns the successor configuration, or ``None`` when the travel
        cannot move in ``config``.  The input configuration is not modified.
        """

    def movable_travels(self, config: Configuration) -> List[int]:
        """Ids of the pending travels that could advance right now."""
        movable = []
        for travel in config.travels:
            if self.advance_travel(config, travel.travel_id) is not None:
                movable.append(travel.travel_id)
        return movable
