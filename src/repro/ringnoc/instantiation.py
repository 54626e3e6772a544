"""Ring instantiations of GeNoC (see package docstring)."""

from __future__ import annotations

from typing import Set

from repro.core.dependency import DependencyGraphSpec
from repro.core.instance import NoCInstance
from repro.core.measure import flit_hop_measure
from repro.core.spec import ScenarioSpec, resolve_measure
from repro.hermes.injection import Iid
from repro.network.port import Direction, Port, PortName, trans
from repro.network.ring import Ring
from repro.routing.ring import ChainRingRouting, ClockwiseRingRouting
from repro.switching.wormhole import WormholeSwitching


class ChainRingDependencySpec(DependencyGraphSpec):
    """The declared dependency graph of the chain-routed ring.

    * a local in-port depends on the East out-port, the West out-port and
      the local out-port of its node (whichever exist);
    * a West in-port (traffic moving East) depends on the East out-port and
      the local out-port;
    * an East in-port (traffic moving West) depends on the West out-port and
      the local out-port;
    * cardinal out-ports depend on the in-port they feed, **except** the
      wrap-around links (East out-port of the last node, West out-port of
      node 0), which chain routing never uses and which are therefore not
      dependencies;
    * local out-ports are sinks.
    """

    def __init__(self, ring: Ring) -> None:
        self._ring = ring

    @property
    def topology(self) -> Ring:
        return self._ring

    def edges_from(self, port: Port) -> Set[Port]:
        ring = self._ring
        local_out = trans(port, PortName.LOCAL, Direction.OUT)
        if port.direction is Direction.IN:
            result: Set[Port] = {local_out}
            if port.name in (PortName.LOCAL, PortName.WEST):
                east_out = trans(port, PortName.EAST, Direction.OUT)
                if ring.has_port(east_out) and port.x < ring.size - 1:
                    result.add(east_out)
            if port.name in (PortName.LOCAL, PortName.EAST):
                west_out = trans(port, PortName.WEST, Direction.OUT)
                if ring.has_port(west_out) and port.x > 0:
                    result.add(west_out)
            return result
        if port.name is PortName.LOCAL:
            return set()
        # Cardinal out-port: depends on the in-port it feeds, unless it is a
        # wrap-around link (never used by chain routing).
        if port.name is PortName.EAST and port.x == ring.size - 1:
            return set()
        if port.name is PortName.WEST and port.x == 0:
            return set()
        target = ring.link_target(port)
        return {target} if target is not None else set()


class RingWitness:
    """The (C-2) witness function for a ring's dependency edges.

    Mirrors the HERMES ``find_dest``: the nearest destination reachable
    through the target port -- the local out-port of the target's own node
    for in-ports, and of the fed neighbour (with ring wrap-around) for
    out-ports.  A picklable callable (not a closure) so ring instances can
    be shipped to portfolio worker processes.
    """

    def __init__(self, ring: Ring) -> None:
        self._ring = ring

    def __call__(self, edge_source: Port, edge_target: Port) -> Port:
        if edge_target.direction is Direction.IN:
            return trans(edge_target, PortName.LOCAL, Direction.OUT)
        if edge_target.name is PortName.LOCAL:
            return edge_target
        offset = 1 if edge_target.name is PortName.EAST else -1
        node = (edge_target.x + offset) % self._ring.size
        return Port(node, 0, PortName.LOCAL, Direction.OUT)


def ring_witness_destination(ring: Ring):
    """Build the (C-2) witness function for a ring (see :class:`RingWitness`)."""
    return RingWitness(ring)


def build_chain_ring_instance(size: int,
                              buffer_capacity: int = 2,
                              measure=None) -> NoCInstance:
    """The deadlock-free ring instantiation (chain routing, no wrap link)."""
    ring = Ring(size, bidirectional=True)
    routing = ChainRingRouting(ring)
    return NoCInstance(
        name=f"Ring-chain-{size}",
        topology=ring,
        injection=Iid(),
        routing=routing,
        switching=WormholeSwitching(),
        dependency_spec=ChainRingDependencySpec(ring),
        witness_destination=ring_witness_destination(ring),
        measure=measure if measure is not None else flit_hop_measure,
        default_capacity=buffer_capacity,
    )


def build_clockwise_ring_instance(size: int,
                                  buffer_capacity: int = 1,
                                  measure=None) -> NoCInstance:
    """The deadlock-prone ring instantiation (clockwise routing, wrap link).

    No dependency spec is attached: obligation (C-3) is checked on the
    routing-induced graph, where the cycle through the wrap-around link is
    found.
    """
    ring = Ring(size, bidirectional=True)
    routing = ClockwiseRingRouting(ring)
    return NoCInstance(
        name=f"Ring-clockwise-{size}",
        topology=ring,
        injection=Iid(),
        routing=routing,
        switching=WormholeSwitching(),
        dependency_spec=None,
        witness_destination=None,
        measure=measure if measure is not None else flit_hop_measure,
        default_capacity=buffer_capacity,
    )


# ---------------------------------------------------------------------------
# The "ring" scenario kind (registered in repro.core.spec)
# ---------------------------------------------------------------------------

def build_ring_from_spec(spec: ScenarioSpec) -> NoCInstance:
    """:class:`InstanceBuilder` of the ``ring`` kind.

    ``faults = 0`` is the historical healthy construction path; ``faults
    > 0`` samples the deterministic fault set (links only: a ring with a
    dead router stays a chain, but the witness machinery below assumes the
    full node set, so router kills are excluded) and reroutes via the
    fault-aware shortest-surviving-path relation.  No dependency spec or
    witness is attached -- obligation (C-3) is decided on the
    routing-induced graph, like the clockwise variant.
    """
    size = spec.dims[0]
    measure = resolve_measure(spec.measure)
    if spec.faults:
        from repro.network.faults import FaultyRing, sample_fault_spec
        from repro.routing.fault_aware import fault_aware_ring_routing

        fault_spec = sample_fault_spec(Ring(size, bidirectional=True),
                                       spec.faults, spec.fault_seed,
                                       allow_routers=False)
        ring = FaultyRing(size, fault_spec)
        routing = fault_aware_ring_routing(spec.routing, ring)
        return NoCInstance(
            name=f"Ring-{spec.routing}-{ring}",
            topology=ring,
            injection=Iid(),
            routing=routing,
            switching=WormholeSwitching(),
            dependency_spec=None,
            witness_destination=None,
            measure=measure if measure is not None else flit_hop_measure,
            default_capacity=spec.buffers,
        )
    if spec.routing == "chain":
        return build_chain_ring_instance(size, buffer_capacity=spec.buffers,
                                         measure=measure)
    return build_clockwise_ring_instance(size, buffer_capacity=spec.buffers,
                                         measure=measure)
