"""Duato-style escape-channel adaptive routing over virtual channels.

The deadlock-prone adaptive routing functions of this library
(:class:`~repro.routing.adaptive.FullyAdaptiveMinimalRouting`, torus
dimension-order with its wrap links, shortest-path ring routing) are the
designs that virtual channels classically repair: multiplex every physical
port into an **adaptive** VC class that may route freely and a restricted
**escape** VC class whose dependency subgraph is acyclic.  A blocked packet
always has the escape class to fall back on, and packets on the escape
class march through an acyclic resource order -- Duato's methodology.

:class:`EscapeChannelRouting` is that scheme as a *routing relation over
channels*: the VC-selection function is part of the relation, so the
``(port, vc)``-granular dependency graph -- computed by the unchanged
:func:`~repro.core.dependency.routing_dependency_graph` enumeration over a
:class:`~repro.network.vc.VCTopology` -- captures exactly which channel may
wait on which.  The escape discipline is deliberately conservative ("once on
escape, stay on escape"): a packet that enters the escape class keeps
following the escape routing function, so waiting chains rooted in escape
channels stay inside the escape class and the freedom argument needs only

* **(V-1) escape coverage** -- every channel a packet can wait at offers at
  least one escape-class hop, and escape channels offer *only* escape-class
  hops, and
* **(V-2) escape acyclicity** -- the subgraph induced by the escape-class
  channels is acyclic

(checked by :func:`repro.core.theorems.check_deadlock_freedom_vc`, both
explicitly and through the Kahn-peeling session).  With ``num_vcs = 1``
the two classes collapse onto the same single channel, (V-2) degenerates to
the paper's Theorem 1 condition on the full graph, and the verdict is the
single-VC one -- deadlock-prone for the adaptive baselines.

Two escape styles are provided:

* ``"xy"`` -- one escape VC running dimension-order routing; for meshes,
  where XY routing is acyclic on its own.
* ``"dateline"`` -- a *pair* of escape VCs for wrap-around topologies (torus,
  ring): a packet starts a dimension on escape VC 0 and is bumped to escape
  VC 1 when its hop crosses a wrap-around (dateline) link, which cuts the
  ring cycles at VC granularity.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.constituents import RoutingFunction
from repro.core.errors import RoutingError
from repro.network.port import Port, PortName
from repro.network.vc import (
    VCTopology,
    VirtualChannel,
    is_wrap_link,
    port_of,
    vc_of,
)
from repro.routing.base import ColumnHops, _ids

#: Which dimension a cardinal port name moves along.
_DIMENSION = {
    PortName.EAST: "x",
    PortName.WEST: "x",
    PortName.NORTH: "y",
    PortName.SOUTH: "y",
}

#: Route-selection policies for committing concrete routes (simulation).
ROUTE_POLICIES = ("escape", "adaptive", "spread")


class EscapeChannelRouting(RoutingFunction):
    """An adaptive VC class plus a restricted escape VC class, as one relation.

    Parameters
    ----------
    topology:
        The :class:`~repro.network.vc.VCTopology` the relation is defined
        over (``topology.num_vcs`` total VCs per cardinal port).
    escape_routing:
        A *deterministic* routing function over the base topology; it must
        produce a next hop from any in-port (XY, torus dimension-order,
        shortest-path ring all do).
    adaptive_routing:
        The unrestricted relation carried by the adaptive VC class, or
        ``None`` for a pure escape network (e.g. dateline dimension-order on
        a torus).
    escape_vc_count:
        Number of VCs reserved for the escape class: 1 for ``"xy"`` style,
        2 for ``"dateline"`` style.  When it equals ``num_vcs`` and an
        adaptive relation is present, the classes *share* the channels (the
        degenerate single-VC behaviour) and no freedom guarantee follows.
    route_policy:
        How :meth:`route_configuration` commits concrete routes: ``"escape"``
        (default -- committed routes live on the provably acyclic escape
        network), ``"adaptive"`` (always take an adaptive hop while one
        exists) or ``"spread"`` (alternate per travel id).  Committed
        adaptive routes forfeit the Duato guarantee: the guarantee is for an
        adaptive *router* that may still divert a blocked packet to the
        escape class, which a pre-committed route cannot do.
    """

    def __init__(self, topology: VCTopology,
                 escape_routing: RoutingFunction,
                 adaptive_routing: Optional[RoutingFunction] = None,
                 escape_vc_count: int = 1,
                 route_policy: str = "escape",
                 style: Optional[str] = None) -> None:
        if escape_vc_count < 1:
            raise ValueError("the escape class needs at least one VC")
        if topology.num_vcs < escape_vc_count:
            raise ValueError(
                f"{escape_vc_count} escape VCs do not fit into "
                f"{topology.num_vcs} total VCs")
        if route_policy not in ROUTE_POLICIES:
            raise ValueError(f"route_policy must be one of {ROUTE_POLICIES}")
        self._vct = topology
        self._escape = escape_routing
        self._adaptive = adaptive_routing
        self._escape_vc_count = int(escape_vc_count)
        self.route_policy = route_policy
        self._style = style or ("dateline" if escape_vc_count > 1 else "xy")
        self._escape_vcs = tuple(range(self._escape_vc_count))
        self._adaptive_vcs = () if adaptive_routing is None else (
            tuple(range(self._escape_vc_count, topology.num_vcs))
            or self._escape_vcs)

    # -- class structure ------------------------------------------------------
    @property
    def topology(self) -> VCTopology:
        return self._vct

    @property
    def num_vcs(self) -> int:
        return self._vct.num_vcs

    @property
    def escape_vcs(self) -> Tuple[int, ...]:
        """The VC indices of the escape class."""
        return self._escape_vcs

    @property
    def adaptive_vcs(self) -> Tuple[int, ...]:
        """The VC indices carrying the adaptive relation.

        Empty for a pure escape network; equal to :attr:`escape_vcs` in the
        degenerate shared case (``num_vcs == escape_vc_count`` with an
        adaptive relation present).
        """
        return self._adaptive_vcs

    @property
    def classes_separated(self) -> bool:
        """Do the adaptive and escape classes use disjoint VCs?

        Only then does the escape discipline ("once on escape, stay on
        escape") hold and the Duato-style freedom argument apply.
        """
        return not set(self.adaptive_vcs) & set(self.escape_vcs)

    @property
    def escape_routing(self) -> RoutingFunction:
        return self._escape

    @property
    def adaptive_routing(self) -> Optional[RoutingFunction]:
        return self._adaptive

    def is_escape_resource(self, resource) -> bool:
        """Is the channel in the escape class (local channels count)?"""
        return vc_of(resource) in self.escape_vcs

    def name(self) -> str:
        base = self._adaptive.name() if self._adaptive is not None else "pure"
        return (f"Resc-{self._style}[{base},{self.num_vcs}vc,"
                f"{self._escape_vc_count}esc]")

    @property
    def is_deterministic(self) -> bool:
        return self._adaptive is None

    # -- the routing relation over channels -----------------------------------
    def _route_from_in_port(self, current: VirtualChannel,
                            destination: VirtualChannel
                            ) -> List[VirtualChannel]:
        port = port_of(current)
        adaptive_outs, escape_out = self._base_answers(port, destination.port)
        return [VirtualChannel(out, vc) for out, vc in self._in_channel_hops(
            port, vc_of(current), adaptive_outs, escape_out)]

    def _base_answers(self, port: Port, base_dest: Port
                      ) -> Tuple[List[Port], Port]:
        """The base routings' hops from the in-port ``port`` of a node that
        is not ``base_dest``'s: the adaptive out-ports and the escape one."""
        adaptive_outs = (self._adaptive._route_from_in_port(port, base_dest)
                         if self._adaptive is not None else [])
        escape = self._escape
        escape_out = escape._single_hop(
            escape._route_from_in_port(port, base_dest), port, base_dest)
        return adaptive_outs, escape_out

    def _in_channel_hops(self, port: Port, vc: int,
                         adaptive_outs: Sequence[Port],
                         escape_out: Port) -> List[Tuple[Port, int]]:
        """The in-channel rule: the ``(out port, vc)`` hops, in relation order.

        ``adaptive_outs`` and ``escape_out`` are the base routings' answers
        for the in-port ``port`` of a node that is not the destination's.
        A local in-port or an adaptive-class channel offers every adaptive
        out-port on every adaptive VC; every channel then offers the escape
        out-port on the VC :meth:`_escape_vc_for` selects, unless an
        adaptive hop is already that channel.  :meth:`_route_from_in_port`
        and the route-table fill both call this hook, so the rule has one
        definition.  An override must depend on its arguments only: the
        fill reuses a channel's answer for every destination with the same
        base answers.
        """
        hops: List[Tuple[Port, int]] = []
        if self._adaptive is not None and (port.is_local
                                           or vc in self.adaptive_vcs):
            hops = [(out, adaptive_vc) for out in adaptive_outs
                    for adaptive_vc in self.adaptive_vcs]
        escape_hop = (escape_out, self._escape_vc_for(port, vc, escape_out))
        if escape_hop not in hops:
            hops.append(escape_hop)
        return hops

    def _escape_vc_for(self, port: Port, vc: int, escape_out: Port) -> int:
        """The escape-class VC selected for the hop onto ``escape_out``.

        Single escape VC: always 0.  Dateline pair: a hop whose physical
        link wraps around bumps the packet to escape VC 1; continuing in the
        same dimension keeps the current escape VC; entering a dimension
        (from the local port or after a dimension turn) resets to VC 0.
        """
        if self._escape_vc_count == 1:
            return 0
        if is_wrap_link(self._vct.base, escape_out):
            return 1
        if (not port.is_local
                and vc in self.escape_vcs
                and _DIMENSION.get(port.name) == _DIMENSION.get(
                    escape_out.name)):
            return vc
        return 0

    # -- the route table's column answers, composed from the base routings --
    def _in_port_columns(self, ports: Sequence[VirtualChannel],
                         index: Dict[VirtualChannel, int]) -> ColumnHops:
        """The algorithm case of the route table's skeleton, over channel ids.

        Equals :meth:`_route_from_in_port`: an in-channel of a node that is
        not the destination's reads the base routings' answers for its
        physical port, asked once per (base port, base destination).
        :meth:`_in_channel_hops` turns those answers into channel ids once
        per (channel, answers), and every column with the same answers
        reuses them.
        """
        base_ports = self._vct.base.ports
        base_index = {port: i for i, port in enumerate(base_ports)}
        base_of = [base_index[channel.port] for channel in ports]
        # (adaptive out ids, escape out id) -> [outs, escape out, hop rows]
        answers: Dict[Tuple, list] = {}

        def in_port_hops(destination: VirtualChannel) -> Callable:
            base_dest = destination.port
            columns: Dict[int, list] = {}

            def hops_of(p: int) -> Tuple[int, ...]:
                base = base_of[p]
                answer = columns.get(base)
                if answer is None:
                    outs, escape_out = self._base_answers(base_ports[base],
                                                          base_dest)
                    key = (_ids(base_index, outs),
                           _ids(base_index, [escape_out]))
                    answer = answers.get(key)
                    if answer is None:
                        answer = answers[key] = [outs, escape_out, {}]
                    columns[base] = answer
                outs, escape_out, rows = answer
                hops = rows.get(p)
                if hops is None:
                    pairs = self._in_channel_hops(
                        base_ports[base], ports[p].vc, outs, escape_out)
                    hops = rows[p] = _ids(index, pairs)
                return hops

            return hops_of

        return in_port_hops

    # -- committing concrete routes (simulation) -------------------------------
    def compute_route(self, source: VirtualChannel,
                      destination: VirtualChannel,
                      max_hops: Optional[int] = None,
                      preference: Optional[str] = None) -> List[VirtualChannel]:
        """A concrete channel route, selected by ``preference``.

        ``"escape"`` keeps the packet on the escape class from the first
        hop; ``"adaptive"`` takes the first adaptive hop while one exists
        (falling back to escape when the adaptive class is absent).
        """
        preference = preference or self.route_policy
        if preference == "spread":
            preference = "adaptive"
        self._require_destination(destination)

        def choose(current: VirtualChannel) -> VirtualChannel:
            hops = self._hops(current, destination)
            if not hops:
                raise RoutingError(
                    f"no next hop from {current} towards {destination}")
            return self._select_hop(hops, preference)

        return self._walk_route(source, destination, max_hops, choose)

    def _select_hop(self, hops: Sequence[VirtualChannel],
                    preference: str) -> VirtualChannel:
        if len(hops) == 1:
            return hops[0]
        escape_hops = [hop for hop in hops if self.is_escape_resource(hop)]
        if preference == "escape" and escape_hops:
            return escape_hops[0]
        adaptive_hops = [hop for hop in hops
                         if not self.is_escape_resource(hop)]
        if preference == "adaptive" and adaptive_hops:
            return adaptive_hops[0]
        return hops[0]

    def _travel_route(self, travel) -> List[VirtualChannel]:
        """The travel's route under the relation's route policy.

        ``"spread"`` alternates the per-travel preference by travel id so a
        simulated workload exercises both VC classes.
        """
        preference = self.route_policy
        if preference == "spread":
            preference = "adaptive" if travel.travel_id % 2 else "escape"
        return self.compute_route(travel.source, travel.destination,
                                  preference=preference)


# ---------------------------------------------------------------------------
# Construction helpers: the shipped escape schemes
# ---------------------------------------------------------------------------

def mesh_escape_routing(mesh, num_vcs: int = 2,
                        route_policy: str = "escape") -> EscapeChannelRouting:
    """Fully-adaptive minimal routing + one XY escape VC on a 2D mesh.

    ``num_vcs = 1`` is the degenerate single-channel case: adaptive and
    escape share the only VC and the design stays deadlock-prone.
    """
    from repro.routing.adaptive import FullyAdaptiveMinimalRouting
    from repro.routing.xy import XYRouting

    topology = VCTopology(mesh, num_vcs)
    return EscapeChannelRouting(
        topology,
        escape_routing=XYRouting(mesh),
        adaptive_routing=FullyAdaptiveMinimalRouting(mesh),
        escape_vc_count=1,
        route_policy=route_policy,
        style="xy")


def torus_escape_routing(torus, num_vcs: int = 2,
                         route_policy: str = "escape") -> EscapeChannelRouting:
    """Dateline escape pair (+ adaptive class when ``num_vcs > 2``) on a torus.

    * ``num_vcs = 1``: plain torus dimension-order on a single channel --
      the wrap-link cycles make it deadlock-prone;
    * ``num_vcs = 2``: the pure dateline escape network (deadlock-free);
    * ``num_vcs > 2``: dateline escape pair plus a fully-adaptive minimal
      class on the remaining VCs.
    """
    from repro.routing.torus import (
        TorusAdaptiveMinimalRouting,
        TorusXYRouting,
    )

    topology = VCTopology(torus, num_vcs)
    if num_vcs == 1:
        return EscapeChannelRouting(
            topology,
            escape_routing=TorusXYRouting(torus),
            adaptive_routing=None,
            escape_vc_count=1,
            route_policy=route_policy,
            style="dateline")
    adaptive = (TorusAdaptiveMinimalRouting(torus) if num_vcs > 2 else None)
    return EscapeChannelRouting(
        topology,
        escape_routing=TorusXYRouting(torus),
        adaptive_routing=adaptive,
        escape_vc_count=2,
        route_policy=route_policy,
        style="dateline")


def ring_escape_routing(ring, num_vcs: int = 2,
                        route_policy: str = "escape",
                        base_routing: Optional[RoutingFunction] = None
                        ) -> EscapeChannelRouting:
    """Dateline escape pair on a ring.

    ``base_routing`` is the (deterministic, wrap-using) ring routing the
    dateline repairs -- shortest-path by default, or e.g.
    :class:`~repro.routing.ring.ClockwiseRingRouting` to repair the
    paper's clockwise counterexample itself.  ``num_vcs = 1`` is the plain
    base routing on one channel (deadlock-prone through the wrap link);
    ``num_vcs >= 2`` adds the dateline VC switch that cuts the ring cycle.
    """
    from repro.routing.ring import ShortestPathRingRouting

    if base_routing is None:
        base_routing = ShortestPathRingRouting(ring)
    topology = VCTopology(ring, num_vcs)
    return EscapeChannelRouting(
        topology,
        escape_routing=base_routing,
        adaptive_routing=None,
        escape_vc_count=1 if num_vcs == 1 else 2,
        route_policy=route_policy,
        style="dateline")
