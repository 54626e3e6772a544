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

from typing import Optional

from repro.core.configuration import (
    Configuration,
    NOT_INJECTED,
    TravelProgress,
)
from repro.core.constituents import SwitchingPolicy
from repro.switching.base import (
    SingleTravelStepper,
    collect_arrivals,
    remove_flit,
)


class WormholeSwitching(SwitchingPolicy, SingleTravelStepper):
    """The wormhole switching policy ``Swh``."""

    def name(self) -> str:
        return "Swh"

    # -- SwitchingPolicy interface ------------------------------------------------
    def advance(self, config: Configuration) -> None:
        """Advance every message by at most one hop (in travel-id order)."""
        for travel in config.travels:
            self._advance_worm(config, travel.travel_id)
        collect_arrivals(config)

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
        moved = self._advance_worm(new_config, travel_id)
        if not moved:
            return None
        collect_arrivals(new_config)
        return new_config

    # -- internals ----------------------------------------------------------------------
    def _leader_index(self, record: TravelProgress) -> Optional[int]:
        """Index of the first flit that has not been ejected yet."""
        for index, position in enumerate(record.positions):
            if position != record.ejected_position:
                return index
        return None

    def _can_worm_advance(self, config: Configuration, travel_id: int) -> bool:
        record = config.progress.get(travel_id)
        if record is None:
            return False
        leader = self._leader_index(record)
        if leader is None:
            # Fully ejected but not yet collected: collecting counts as
            # progress (it empties T), though it normally happens in the same
            # step as the last ejection.
            return True
        position = record.positions[leader]
        route = record.route
        if position == len(route) - 1:
            # At the destination local out-port: ejection is always possible.
            return True
        target_index = 0 if position == NOT_INJECTED else position + 1
        return (config.state.accepts(route[target_index], travel_id)
                and self._leader_hop_allowed(config, route, position,
                                             target_index, travel_id))

    def _advance_worm(self, config: Configuration, travel_id: int) -> bool:
        """Advance the worm of one travel by one pipelined shift.

        Returns True when at least one flit moved.
        """
        record = config.progress.get(travel_id)
        if record is None:
            return False
        route = record.route
        ejected = record.ejected_position
        state = config.state
        predecessor_moved = True  # the "predecessor" of the leader is the sink
        leader_pending = True
        any_moved = False

        for index, position in enumerate(record.positions):
            if position == ejected:
                predecessor_moved = True
                continue
            is_leader, leader_pending = leader_pending, False
            if not predecessor_moved:
                # Strict pipelining: a flit only follows a moving predecessor.
                predecessor_moved = False
                continue
            if position == ejected - 1:
                # Ejection at the destination local out-port.
                remove_flit(config, route[position], travel_id, index)
                record.positions[index] = ejected
                predecessor_moved = True
                any_moved = True
                continue
            target_index = 0 if position == NOT_INJECTED else position + 1
            target_port = route[target_index]
            if not state.accepts(target_port, travel_id):
                predecessor_moved = False
                continue
            if is_leader and not self._leader_hop_allowed(
                    config, route, position, target_index, travel_id):
                predecessor_moved = False
                continue
            if not self._claim_hop(route, position, target_port):
                predecessor_moved = False
                continue
            if position == NOT_INJECTED:
                flit = record.flits[index]
            else:
                flit = remove_flit(config, route[position], travel_id, index)
            state.accept_flit(target_port, flit)
            record.positions[index] = target_index
            predecessor_moved = True
            any_moved = True
        return any_moved

    def _claim_hop(self, route, position: int, target) -> bool:
        """Arbitration hook: may this flit hop happen in the current step?

        The base policy has no shared-medium contention (each port is its
        own resource), so every hop that the buffer state accepts is
        granted.  :class:`VCWormholeSwitching` overrides this to arbitrate
        the physical links that its virtual channels multiplex.
        """
        return True

    def _leader_hop_allowed(self, config: Configuration, route,
                            position: int, target_index: int,
                            travel_id: int) -> bool:
        """Allocation hook: may the *header* take this hop right now?

        The base policy lets the header advance whenever the next port
        accepts it.  :class:`VCWormholeSwitching` overrides this with
        credit-based allocation: the header only enters a cardinal
        out-channel when the downstream in-channel also accepts it, so a
        header never ends up waiting inside an out-channel where the escape
        class can no longer be requested.
        """
        return True


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
