"""Virtual cut-through switching.

Like wormhole switching, flits advance in a pipelined fashion, but the header
only advances into a port that has enough free buffers for the *entire*
remaining packet.  As a consequence a blocked packet always fits into the
port holding its header (plus the ports behind it it is draining from), which
removes the long multi-port worms that make wormhole switching particularly
deadlock-prone -- but the port-dependency condition of Theorem 1 is the same.

The implementation reuses the wormhole mechanics and only strengthens the
header-admission test.
"""

from __future__ import annotations

from repro.core.configuration import Configuration, NOT_INJECTED
from repro.switching.wormhole import WormholeSwitching


class VirtualCutThroughSwitching(WormholeSwitching):
    """Virtual cut-through: header admission requires room for the packet."""

    def name(self) -> str:
        return "Svct"

    def _leader_hop_allowed(self, config: Configuration, route,
                            position: int, target_index: int,
                            travel_id: int) -> bool:
        """A header already in the network enters the next port only when
        that port can buffer the whole remaining packet (the flits not yet
        ejected).  Injection is admitted as in ``Swh``."""
        record = config.progress[travel_id]
        positions, ejected = record.positions, record.ejected_position
        if position == NOT_INJECTED or positions[0] == ejected:
            return True  # injecting, or the leader is not the header
        buffer = config.state[route[target_index]].buffer
        remaining = len(positions) - positions.count(ejected)
        return buffer.free_slots >= min(remaining, buffer.capacity)
