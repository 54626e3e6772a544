"""Test-only reference for the wormhole switching step.

The step as it was first written: every pending travel is visited in
``config.travels`` order, un-injected worms included, every flit test
and move goes through the public :class:`~repro.network.buffers.PortState`
API (``accepts``/``accept``/``release``), and fully ejected travels are
collected by a rescan of ``T`` at the end of the step.  It shares no code
with :mod:`repro.switching.wormhole`: plain wormhole (``Swh``), virtual
cut-through (``Svct``) and VC wormhole (``Svc-wh``, per-step physical
link arbitration and credit-based header allocation) are spelled out
here, so a step that skips worms or moves flits differently is checked
against an independent statement of the same semantics.
"""

from repro.core.configuration import NOT_INJECTED
from repro.core.errors import SwitchingError
from repro.network.vc import port_of


class ReferenceWormhole:
    """One switching step and the single-travel transition of ``kind``
    (``"Swh"``, ``"Svct"`` or ``"Svc-wh"``), on configurations."""

    def __init__(self, kind):
        assert kind in ("Swh", "Svct", "Svc-wh")
        self.kind = kind
        self.links_used = set()

    # -- the transitions --------------------------------------------------
    def step(self, config):
        """``S(σ)``: a copy of ``config`` advanced by one switching step."""
        successor = config.copy()
        self.links_used = set()
        for travel in successor.travels:
            self.advance_worm(successor, travel.travel_id)
        collect_arrivals(successor)
        return successor

    def advance_travel(self, config, travel_id):
        """Only ``travel_id`` moves; ``None`` when it cannot."""
        self.links_used = set()
        if not self.can_advance(config, travel_id):
            return None
        successor = config.copy()
        if not self.advance_worm(successor, travel_id):
            return None
        collect_arrivals(successor)
        return successor

    def is_deadlock(self, config):
        """``Ω(σ)``: pending travels, none of which can move."""
        return bool(config.travels) and not any(
            self.can_advance(config, travel.travel_id)
            for travel in config.travels)

    # -- one worm ---------------------------------------------------------
    def can_advance(self, config, travel_id):
        record = config.progress.get(travel_id)
        if record is None:
            return False
        ejected = record.ejected_position
        leader = next((index for index, position
                       in enumerate(record.positions)
                       if position != ejected), None)
        if leader is None:
            return True
        position = record.positions[leader]
        route = record.route
        if position == len(route) - 1:
            return True
        target_index = 0 if position == NOT_INJECTED else position + 1
        target = config.state[route[target_index]]
        if not target.accepts(travel_id):
            return False
        if self.kind == "Svct":
            if leader == 0 and record.positions[0] != NOT_INJECTED:
                remaining = sum(1 for pos in record.positions
                                if pos != ejected)
                return target.buffer.free_slots >= min(
                    remaining, target.buffer.capacity)
            return True
        return self.leader_allowed(config, route, target_index, travel_id)

    def advance_worm(self, config, travel_id):
        """One pipelined shift of the worm; True when a flit moved."""
        if self.kind == "Svct" and not self.can_advance(config, travel_id):
            return False
        record = config.progress.get(travel_id)
        if record is None:
            return False
        route = record.route
        ejected = record.ejected_position
        predecessor_moved = True
        leader_pending = True
        any_moved = False
        for index, position in enumerate(record.positions):
            if position == ejected:
                predecessor_moved = True
                continue
            is_leader, leader_pending = leader_pending, False
            if not predecessor_moved:
                continue
            if position == ejected - 1:
                release(config, route[position], travel_id, index)
                record.positions[index] = ejected
                any_moved = True
                continue
            target_index = 0 if position == NOT_INJECTED else position + 1
            target = route[target_index]
            if (not config.state[target].accepts(travel_id)
                    or (is_leader and not self.leader_allowed(
                        config, route, target_index, travel_id))
                    or not self.claim(route, position, target)):
                predecessor_moved = False
                continue
            if position == NOT_INJECTED:
                flit = record.flits[index]
            else:
                flit = release(config, route[position], travel_id, index)
            config.state[target].accept(flit)
            record.positions[index] = target_index
            any_moved = True
        return any_moved

    # -- Svc-wh: credits and link arbitration -------------------------------
    def leader_allowed(self, config, route, target_index, travel_id):
        """A header enters a cardinal out-channel only with a downstream
        credit."""
        if self.kind != "Svc-wh":
            return True
        target = port_of(route[target_index])
        if not target.is_output or target.is_local:
            return True
        if target_index + 1 >= len(route):
            return True
        return config.state[route[target_index + 1]].accepts(travel_id)

    def claim(self, route, position, target):
        """At most one flit per physical link per step."""
        if self.kind != "Svc-wh" or position == NOT_INJECTED:
            return True
        source_port, target_port = port_of(route[position]), port_of(target)
        if not (source_port.is_output and target_port.is_input):
            return True
        link = (source_port, target_port)
        if link in self.links_used:
            return False
        self.links_used.add(link)
        return True


def release(config, port, travel_id, index):
    """Pop the head flit of ``port``, which must be flit ``index`` of
    ``travel_id``."""
    flit = config.state[port].release()
    if flit.travel_id != travel_id or flit.index != index:
        raise SwitchingError(f"expected flit {index} of travel {travel_id} "
                             f"at {port}, found {flit}")
    return flit


def collect_arrivals(config):
    """Move every fully ejected travel from ``T`` to ``A``, in ``T``
    order."""
    pending = []
    for travel in config.travels:
        record = config.progress.get(travel.travel_id)
        if record is not None and record.is_arrived:
            config.arrived.append(travel)
        else:
            pending.append(travel)
    config.travels[:] = pending


def snapshot(config):
    """The dynamic state: positions, every port's FIFO and owner, ``T``
    and ``A`` in order."""
    return {
        "positions": {tid: tuple(record.positions)
                      for tid, record in config.progress.items()},
        "ports": {port: (tuple((flit.travel_id, flit.index)
                               for flit in state.buffer), state.owner)
                  for port, state in config.state.items()},
        "T": [travel.travel_id for travel in config.travels],
        "A": [travel.travel_id for travel in config.arrived],
    }
