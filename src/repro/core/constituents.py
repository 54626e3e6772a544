"""The three generic GeNoC constituents: Injection, Routing, Switching.

The GeNoC methodology (paper Section III) does not give the constituents a
definition; it only characterises them by proof obligations.  These abstract
base classes are the Python counterpart of that genericity: the engine in
:mod:`repro.core.genoc`, the obligation checkers in
:mod:`repro.core.obligations` and the theorem checkers in
:mod:`repro.core.theorems` are written purely against these interfaces.

Concrete instantiations live in :mod:`repro.hermes` (the paper's case
study), :mod:`repro.routing`, :mod:`repro.switching` and
:mod:`repro.spidergon`.
"""

from __future__ import annotations

import abc
from typing import Callable, List, Optional

from repro.core.configuration import Configuration, TravelProgress
from repro.core.errors import RoutingError
from repro.core.travel import Travel
from repro.network.port import Port
from repro.network.topology import Topology


class InjectionMethod(abc.ABC):
    """``I : Σ -> Σ`` -- decides which travels are injected into the network."""

    @abc.abstractmethod
    def inject(self, config: Configuration) -> Configuration:
        """Return the configuration after injection."""

    def name(self) -> str:
        return type(self).__name__


class RoutingFunction(abc.ABC):
    """``R : P x P -> P`` -- the port-level routing function.

    :meth:`next_hops` maps a current port and a destination port to the
    set of possible next hops (a singleton for deterministic routing
    functions such as XY).  It is the paper's three-case definition
    (Section V.3, ``Rxy``) once for every algorithm: an out-port goes to
    the in-port it is linked to, an in-port of the destination's node
    delivers, and only the remaining case -- an in-port of any other
    node -- is the algorithm, :meth:`_route_from_in_port`.  Likewise
    :meth:`reachable` is one ``s R d`` for every algorithm: the pairs
    that occur on routes from local in-ports, read from the route table
    (:func:`repro.routing.base.route_table`).  The generalisation to
    configurations (``R : Σ -> Σ``) is provided by
    :meth:`route_configuration`, which pre-computes one route per travel.
    """

    #: Safety bound on route length, as a multiple of the port count.
    MAX_ROUTE_FACTOR = 4

    @property
    @abc.abstractmethod
    def topology(self) -> Topology:
        """The topology this routing function is defined over."""

    @abc.abstractmethod
    def _route_from_in_port(self, current: Port,
                            destination: Port) -> List[Port]:
        """The algorithm: the next hops from an in-port of a node that is
        not the destination's (``destination`` is valid)."""

    # -- the port-level skeleton ----------------------------------------------
    def is_destination(self, port: Port) -> bool:
        """Is ``port`` a destination: a local out-port of the topology?"""
        return port.is_local and port.is_output and self.topology.has_port(
            port)

    def _require_destination(self, destination: Port) -> None:
        if not self.is_destination(destination):
            raise RoutingError(
                f"{destination} is not a valid destination (destinations "
                f"are local out-ports of {self.topology})")

    def next_hops(self, current: Port, destination: Port) -> List[Port]:
        """All ports the routing function may route to next."""
        self._require_destination(destination)
        return self._hops(current, destination)

    def _hops(self, current: Port, destination: Port) -> List[Port]:
        """:meth:`next_hops` towards a destination already checked valid:
        a route walk checks its destination once, not on every hop."""
        if current == destination:
            return []
        if current.is_output:
            if current.is_local:
                raise RoutingError(
                    f"cannot route from local out-port {current}: it is a "
                    f"network sink")
            target = self.topology.link_target(current)
            if target is None:
                raise RoutingError(f"out-port {current} has no link")
            return [target]
        if current.node == destination.node:
            return [destination]
        return self._route_from_in_port(current, destination)

    def reachable(self, source: Port, destination: Port) -> bool:
        """The ``s R d`` predicate: does ``(source, destination)`` occur on
        a route from a local in-port?

        A local in-port starts a route to every destination and a local
        out-port is a sink, so neither needs the route table: routing a
        travel from its source builds none.
        """
        if not self.is_destination(destination) \
                or not self.topology.has_port(source):
            return False
        if source == destination:
            return True
        if source.is_local:
            return source.is_input
        from repro.routing.base import route_table

        return route_table(self).lookup(source, destination) is not None

    # -- derived behaviour ----------------------------------------------------
    @property
    def is_deterministic(self) -> bool:
        """Deterministic routing functions return at most one next hop.

        The paper's deadlock condition (Theorem 1) applies to deterministic
        routing; adaptive extensions override this property.
        """
        return True

    def next_hop(self, current: Port, destination: Port) -> Port:
        """The unique next hop of a deterministic routing function."""
        return self._single_hop(self.next_hops(current, destination),
                                current, destination)

    def _single_hop(self, hops: List[Port], current: Port,
                    destination: Port) -> Port:
        """The one hop of ``hops``: a deterministic routing gives one."""
        if not hops:
            raise RoutingError(
                f"no next hop from {current} towards {destination}")
        if len(hops) > 1 and self.is_deterministic:
            raise RoutingError(
                f"deterministic routing returned {len(hops)} hops at {current}")
        return hops[0]

    def destinations(self) -> List[Port]:
        """All valid destination ports (default: every local out-port)."""
        return self.topology.local_out_ports()

    def compute_route(self, source: Port, destination: Port,
                      max_hops: Optional[int] = None) -> List[Port]:
        """Compute the full route from ``source`` to ``destination``.

        The route includes both endpoints and holds the topology's own port
        objects.  Raises :class:`RoutingError` if a hop leaves the topology
        or if the routing function does not reach the destination within
        the hop bound (which, for a correct deterministic routing function,
        never happens for reachable destinations).
        """
        self._require_destination(destination)
        return self._walk_route(
            source, destination, max_hops,
            lambda current: self._single_hop(
                self._hops(current, destination), current, destination))

    def _walk_route(self, source, destination, max_hops: Optional[int],
                    choose: Callable[[Port], Port]) -> List[Port]:
        """Follow ``choose(current)`` from ``source`` to ``destination``
        (checked a valid destination by the caller)."""
        topology = self.topology
        if max_hops is None:
            max_hops = self.MAX_ROUTE_FACTOR * max(topology.port_count, 4)
        route = [topology.intern(source) or source]
        current = source
        while current != destination:
            if len(route) > max_hops:
                raise RoutingError(
                    f"route from {source} to {destination} exceeds "
                    f"{max_hops} hops: routing does not terminate")
            hop = choose(current)
            current = topology.intern(hop)
            if current is None:
                raise RoutingError(
                    f"routing produced non-existent port {hop}")
            route.append(current)
        return route

    def _travel_route(self, travel: Travel) -> List[Port]:
        """The route committed for one travel by :meth:`route_configuration`."""
        return self.compute_route(travel.source, travel.destination)

    def route_configuration(self, config: Configuration) -> Configuration:
        """``R : Σ -> Σ`` -- pre-compute the route of every pending travel."""
        routed: List[Travel] = []
        for travel in config.travels:
            if travel.has_route:
                routed.append(travel)
                continue
            if not self.reachable(travel.source, travel.destination):
                raise RoutingError(
                    f"destination {travel.destination} is not reachable "
                    f"from {travel.source}")
            routed.append(travel.with_route(self._travel_route(travel)))
        progress = dict(config.progress)
        for travel in routed:
            if travel.travel_id not in progress:
                progress[travel.travel_id] = TravelProgress.initial(travel)
        return Configuration(travels=routed, state=config.state,
                             arrived=config.arrived, progress=progress)

    def name(self) -> str:
        return type(self).__name__


class SwitchingPolicy(abc.ABC):
    """``S : Σ -> Σ`` -- advances every message by at most one hop."""

    def step(self, config: Configuration) -> Configuration:
        """One switching step, as the pure function ``S : Σ -> Σ``.

        Returns the successor configuration; ``config`` is not modified.
        """
        successor = config.copy()
        self.advance(successor)
        return successor

    @abc.abstractmethod
    def advance(self, config: Configuration) -> None:
        """One switching step, applied to ``config`` in place.

        Every message that can make progress advances by at most one hop;
        travels whose flits have all been ejected move from ``T`` to ``A``.
        """

    @abc.abstractmethod
    def can_progress(self, config: Configuration) -> bool:
        """``¬Ω(σ)`` -- is there any message that can make progress?"""

    def measure(self, config: Configuration) -> int:
        """Default termination measure (may be overridden).

        The default is the refined flit-hop measure, which strictly
        decreases on every non-deadlocked step of the policies shipped with
        this library.
        """
        from repro.core.measure import flit_hop_measure
        return flit_hop_measure(config)

    def name(self) -> str:
        return type(self).__name__


def is_deadlock(config: Configuration, switching: SwitchingPolicy) -> bool:
    """``Ω(σ)``: there are pending messages and none of them can progress.

    Defined beside :meth:`SwitchingPolicy.can_progress` so the GeNoC
    interpreter asks it without loading the deadlock analysis of
    :mod:`repro.core.deadlock` (which re-exports it).
    """
    if config.is_finished():
        return False
    return not switching.can_progress(config)


class IdentityInjection(InjectionMethod):
    """``Iid`` -- the identity injection method of the paper (Section V.2).

    All messages are assumed to have been injected at time 0, so the
    injection method is the identity function.  This trivially satisfies
    obligation (C-4).
    """

    def inject(self, config: Configuration) -> Configuration:
        return config

    def name(self) -> str:
        return "Iid"
