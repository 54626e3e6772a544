"""Wormhole switching: the ``Swh`` constituent of the HERMES instantiation.

The paper (Section V.4) re-uses the wormhole switching specification of
Borrione et al.: messages are decomposed into flits; a port accepts a flit if
it has at least one available buffer; a port can only accept flits of at most
one packet; for each message, the policy "moves or not the message depending
on the state of the handshake protocol and available buffer spaces at the
next hop".

The model implemented here is flit-accurate:

* every travel's message is a *worm* of flits spread over consecutive route
  ports;
* the header advances one hop per switching step when the next port accepts
  it (free buffer, not owned by another worm);
* body flits follow in a pipelined fashion: a flit advances only when its
  predecessor advanced, so the worm stays contiguous and a port is owned by
  the worm from the moment the header enters it until the tail leaves it;
* flits that reach the destination local out-port are ejected (consumed by
  the IP core); when every flit of a travel has been ejected the travel moves
  from ``T`` to ``A``.

The worm-contiguity invariant (consecutive flits are never more than one
route hop apart) is what makes the port-level deadlock analysis of Theorem 1
apply: a message waits only on its header's next hop.  The invariant is
checked by the property-based tests in ``tests/test_wormhole_properties.py``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from heapq import heapify, heappop, heappush
from typing import List, Optional

from repro.core.configuration import (
    Configuration,
    NOT_INJECTED,
    TravelProgress,
    WormQueues,
)
from repro.core.constituents import SwitchingPolicy
from repro.switching.base import SingleTravelStepper, collect_arrivals


def _queue_next(ranks: List[int], rank: int, candidates: List[int]) -> None:
    """Make the first of the queued ``ranks`` after ``rank`` a candidate."""
    later = bisect_right(ranks, rank)
    if later < len(ranks):
        heappush(candidates, ranks[later])


class WormholeSwitching(SwitchingPolicy, SingleTravelStepper):
    """The wormhole switching policy ``Swh``."""

    #: Arbitration hook ``(route, position, target) -> bool``: may this
    #: flit hop happen in the current step?  ``None``: every hop the buffer
    #: state accepts (each port is its own resource);
    #: :class:`VCWormholeSwitching` arbitrates its shared physical links.
    _claim_hop = None
    #: Allocation hook ``(config, route, position, target_index,
    #: travel_id) -> bool``: may the worm's leading flit take this hop?
    #: ``None``: whenever the next port accepts it;
    #: :class:`VCWormholeSwitching` adds downstream credits and
    #: :class:`~repro.switching.virtual_cut_through.VirtualCutThroughSwitching`
    #: room for the whole packet.
    _leader_hop_allowed = None

    def name(self) -> str:
        return "Swh"

    # -- SwitchingPolicy interface ------------------------------------------------
    def advance(self, config: Configuration) -> None:
        """Advance every message by at most one hop (in travel order).

        Visits, in travel order, every worm with a flit out of its IP
        core, and of the worms queued at their source only those whose
        source is free at their turn: a queued worm's header enters its
        source iff the source has a free slot and no other owner -- the
        same test whichever queued worm asks -- so the skipped worms are
        the ones it would refuse.  A source is free at step start or once
        the worm holding it drains it; then the next queued worm whose
        turn is still to come is visited.  A hook may refuse a header its
        free source would take (``Svc-wh``'s credit, when a travel starts
        at a cardinal out-channel), so the queued worm after a refused one
        is visited too while the source stays free.  Arrivals and the
        queues are updated from the worms that moved.
        """
        queues = config.worm_queues()
        records = queues.records
        waiting = queues.waiting
        state = config.state
        candidates = [ranks[0] for source, ranks in waiting.items()
                      if state.is_available(source)]
        heapify(candidates)
        moving: List[int] = []
        arrived: List[int] = []
        drained: list = []
        for rank in queues.moving:
            while candidates and candidates[0] < rank:
                self._admit(config, queues, heappop(candidates), moving,
                            candidates)
            record = records[rank]
            self._advance_worm(config, record, drained)
            if record.positions[-1] == record.ejected_position:
                arrived.append(rank)
            else:
                moving.append(rank)
            if drained:
                for port in drained:
                    # A worm may refill the port it drained (its next
                    # flit enters from the IP core in the same turn).
                    if port in waiting and state.is_available(port):
                        _queue_next(waiting[port], rank, candidates)
                drained.clear()
        while candidates:
            self._admit(config, queues, heappop(candidates), moving,
                        candidates)
        queues.moving = moving
        for rank in arrived:
            index = bisect_left(queues.ranks, rank)
            del queues.ranks[index]
            del config.travels[index]
            config.arrived.append(queues.pending.pop(index))

    def _admit(self, config: Configuration, queues: WormQueues, rank: int,
               moving: List[int], candidates: List[int]) -> None:
        """The turn of a queued worm: inject its header if its source
        accepts it, and move it from its source queue to ``moving``; if
        refused with its source still free, the next queued worm there
        gets its turn too."""
        record = queues.records[rank]
        if record.positions[0] != NOT_INJECTED:
            return  # already admitted this step
        source = record.route[0]
        ranks = queues.waiting[source]
        if self._advance_worm(config, record, []):
            del ranks[bisect_left(ranks, rank)]
            if not ranks:
                del queues.waiting[source]
            moving.append(rank)
        elif config.state.is_available(source):
            _queue_next(ranks, rank, candidates)

    def can_progress(self, config: Configuration) -> bool:
        """``¬Ω(σ)``: at least one message can move this step."""
        return any(self._can_worm_advance(config, travel.travel_id)
                   for travel in config.travels)

    # -- SingleTravelStepper interface ----------------------------------------------
    def advance_travel(self, config: Configuration,
                       travel_id: int) -> Optional[Configuration]:
        if not self._can_worm_advance(config, travel_id):
            return None
        new_config = config.copy()
        moved = self._advance_worm(new_config,
                                   new_config.progress[travel_id], [])
        if not moved:
            return None
        collect_arrivals(new_config)
        return new_config

    # -- internals ----------------------------------------------------------------------
    def _can_worm_advance(self, config: Configuration, travel_id: int) -> bool:
        record = config.progress.get(travel_id)
        if record is None:
            return False
        ejected = record.ejected_position
        position = next((position for position in record.positions
                         if position != ejected), None)
        if position is None:
            # Fully ejected but not yet collected: collecting counts as
            # progress (it empties T), though it normally happens in the same
            # step as the last ejection.
            return True
        route = record.route
        if position == len(route) - 1:
            # At the destination local out-port: ejection is always possible.
            return True
        target_index = position + 1  # 0 from NOT_INJECTED (-1)
        allowed = self._leader_hop_allowed
        return (config.state.accepts(route[target_index], travel_id)
                and (allowed is None or allowed(config, route, position,
                                                target_index, travel_id)))

    def _advance_worm(self, config: Configuration, record: TravelProgress,
                      drained: list) -> bool:
        """Advance the worm of one travel by one pipelined shift.

        Returns True when at least one flit moved, and appends to
        ``drained`` the ports its flits left empty.  Each flit moves with
        one :meth:`~repro.core.state.NetworkState.move_flit` call.
        """
        travel_id = record.travel.travel_id
        route = record.route
        ejected = record.ejected_position
        positions = record.positions
        flits = record.flits
        state = config.state
        leader_allowed = self._leader_hop_allowed
        claim = self._claim_hop
        moved = False  # until a flit moves, the one at hand is the leader

        for index, position in enumerate(positions):
            if position == ejected:
                continue
            if position == ejected - 1:
                # Ejection at the destination local out-port.
                target_index, target = ejected, None
            else:
                target_index = position + 1  # 0 from NOT_INJECTED (-1)
                target = route[target_index]
                if (not state.accepts(target, travel_id)
                        or (not moved and leader_allowed is not None
                            and not leader_allowed(config, route, position,
                                                   target_index, travel_id))
                        or (claim is not None
                            and not claim(route, position, target))):
                    # Strict pipelining: a flit only follows a moving
                    # predecessor, so the flits behind this one stay too
                    # (by worm order none of them is ejected).
                    break
            source = None if position == NOT_INJECTED else route[position]
            if state.move_flit(source, target, flits[index]):
                drained.append(source)
            positions[index] = target_index
            moved = True
        return moved


class VCWormholeSwitching(WormholeSwitching):
    """VC-aware wormhole switching: per-VC credits, shared physical links.

    Runs over a network state keyed by
    :class:`~repro.network.vc.VirtualChannel`, so buffering, credits (free
    buffer slots) and worm ownership are tracked **per virtual channel** --
    two worms on different VCs of the same physical port coexist, which
    plain :class:`WormholeSwitching` forbids.  What the VCs still share is
    the physical link bandwidth: per switching step, at most one flit
    crosses each physical link (an out-port -> in-port connection),
    whichever VC it travels on.  Link arbitration is granted in travel-id
    order within the step; a flit denied the link simply stalls for that
    step, which never affects the deadlock predicate (``can_progress``
    ignores link contention -- a shared link is always re-granted next
    step, so waiting for it cannot be part of a deadlock knot).

    Headers are advanced with **credit-based allocation**: the header only
    moves into a cardinal out-channel when the downstream in-channel (same
    VC -- physical links carry the VC index across) also accepts it.
    Because an in-port has exactly one physical feeder and link hops
    preserve the VC, the granted credit cannot be stolen by another worm,
    so a header never waits inside an out-channel.  This matches real VC
    routers (switch allocation requires a downstream credit) and is what
    makes the escape-class argument of
    :mod:`repro.routing.escape` apply: a blocked header always sits at a
    VC-allocation point where the escape class can still be requested.
    """

    def name(self) -> str:
        return "Svc-wh"

    def advance(self, config: Configuration) -> None:
        self._links_used = set()
        super().advance(config)

    def advance_travel(self, config: Configuration,
                       travel_id: int) -> Optional[Configuration]:
        self._links_used = set()
        return super().advance_travel(config, travel_id)

    def _claim_hop(self, route, position: int, target) -> bool:
        """Grant the hop unless its physical link was used this step."""
        from repro.network.vc import port_of

        if position == NOT_INJECTED:
            return True  # injection from the IP core uses no network link
        source_port = port_of(route[position])
        target_port = port_of(target)
        if not (source_port.is_output and target_port.is_input):
            return True  # an intra-switch hop, not a link traversal
        link = (source_port, target_port)
        if link in self._links_used:
            return False
        self._links_used.add(link)
        return True

    def _leader_hop_allowed(self, config: Configuration, route,
                            position: int, target_index: int,
                            travel_id: int) -> bool:
        """Credit-based allocation: entering a cardinal out-channel needs a
        free slot in the downstream in-channel it feeds."""
        from repro.network.vc import port_of

        target_port = port_of(route[target_index])
        if not target_port.is_output or target_port.is_local:
            return True
        next_index = target_index + 1
        if next_index >= len(route):
            return True
        return config.state.accepts(route[next_index], travel_id)
