"""Virtual-channel instantiations of GeNoC (see the package docstring)."""

from __future__ import annotations

from repro.core.instance import NoCInstance
from repro.core.measure import flit_hop_measure
from repro.core.spec import ScenarioSpec, resolve_measure
from repro.core.travel import Travel, make_travel
from repro.hermes.injection import Iid
from repro.network.mesh import Mesh2D
from repro.network.ring import Ring
from repro.network.torus import Torus2D
from repro.network.vc import VCTopology, VirtualChannel
from repro.routing.escape import (
    EscapeChannelRouting,
    mesh_escape_routing,
    ring_escape_routing,
    torus_escape_routing,
)
from repro.switching.wormhole import VCWormholeSwitching


class VCNoCInstance(NoCInstance):
    """A :class:`NoCInstance` whose resources are virtual channels.

    The network state, routes and dependency graph are all keyed by
    :class:`~repro.network.vc.VirtualChannel`; travels consequently start
    and end at injection/ejection *channels*.
    """

    @property
    def vc_topology(self) -> VCTopology:
        assert isinstance(self.topology, VCTopology)
        return self.topology

    @property
    def num_vcs(self) -> int:
        return self.vc_topology.num_vcs

    @property
    def relation(self) -> EscapeChannelRouting:
        assert isinstance(self.routing, EscapeChannelRouting)
        return self.routing

    def make_travel(self, source_node, destination_node,
                    num_flits: int = 1) -> Travel:
        """A travel between two nodes, using the local injection channels."""
        source = VirtualChannel(
            self.topology.node_at(*source_node).local_in, 0)
        destination = VirtualChannel(
            self.topology.node_at(*destination_node).local_out, 0)
        return make_travel(source, destination, num_flits=num_flits)


def build_vc_mesh_instance(width: int, height: int, num_vcs: int = 2,
                           buffer_capacity: int = 2,
                           route_policy: str = "escape",
                           measure=None) -> VCNoCInstance:
    """Fully-adaptive minimal routing + one XY escape VC on a 2D mesh.

    ``num_vcs = 1`` is the degenerate deadlock-prone baseline (adaptive and
    escape share the single channel); ``num_vcs >= 2`` separates the
    classes and the design is deadlock-free by the (V-1)/(V-2) condition.
    ``route_policy`` picks how simulation routes are committed (see
    :class:`~repro.routing.escape.EscapeChannelRouting`).
    """
    mesh = Mesh2D(width, height)
    relation = mesh_escape_routing(mesh, num_vcs=num_vcs,
                                   route_policy=route_policy)
    return VCNoCInstance(
        name=f"VC-mesh-{width}x{height}-{num_vcs}vc",
        topology=relation.topology,
        injection=Iid(),
        routing=relation,
        switching=VCWormholeSwitching(),
        dependency_spec=None,
        witness_destination=None,
        measure=measure if measure is not None else flit_hop_measure,
        default_capacity=buffer_capacity,
    )


def build_vc_torus_instance(width: int, height: int, num_vcs: int = 2,
                            buffer_capacity: int = 2,
                            route_policy: str = "escape",
                            measure=None) -> VCNoCInstance:
    """Dateline escape pair (+ adaptive class from 3 VCs up) on a torus."""
    torus = Torus2D(width, height)
    relation = torus_escape_routing(torus, num_vcs=num_vcs,
                                    route_policy=route_policy)
    return VCNoCInstance(
        name=f"VC-torus-{width}x{height}-{num_vcs}vc",
        topology=relation.topology,
        injection=Iid(),
        routing=relation,
        switching=VCWormholeSwitching(),
        dependency_spec=None,
        witness_destination=None,
        measure=measure if measure is not None else flit_hop_measure,
        default_capacity=buffer_capacity,
    )


def build_vc_ring_instance(size: int, num_vcs: int = 2,
                           buffer_capacity: int = 2,
                           route_policy: str = "escape",
                           measure=None) -> VCNoCInstance:
    """Dateline escape pair on a bidirectional ring."""
    ring = Ring(size, bidirectional=True)
    relation = ring_escape_routing(ring, num_vcs=num_vcs,
                                   route_policy=route_policy)
    return VCNoCInstance(
        name=f"VC-ring-{size}-{num_vcs}vc",
        topology=relation.topology,
        injection=Iid(),
        routing=relation,
        switching=VCWormholeSwitching(),
        dependency_spec=None,
        witness_destination=None,
        measure=measure if measure is not None else flit_hop_measure,
        default_capacity=buffer_capacity,
    )


# ---------------------------------------------------------------------------
# The vc-* scenario kinds (registered in repro.core.spec)
# ---------------------------------------------------------------------------

def _build_vc_faulty(spec: ScenarioSpec, label: str, topology,
                     style: str, with_adaptive: bool) -> VCNoCInstance:
    """A fault-injected VC instance over an already-built faulty topology."""
    from repro.routing.fault_aware import fault_aware_escape_routing

    relation = fault_aware_escape_routing(
        topology, spec.num_vcs, route_policy=spec.route_policy,
        style=style, with_adaptive=with_adaptive)
    return VCNoCInstance(
        name=f"VC-{label}-{topology}-{spec.num_vcs}vc",
        topology=relation.topology,
        injection=Iid(),
        routing=relation,
        switching=VCWormholeSwitching(),
        dependency_spec=None,
        witness_destination=None,
        measure=resolve_measure(spec.measure),
        default_capacity=spec.buffers,
    )


def build_vc_mesh_from_spec(spec: ScenarioSpec) -> VCNoCInstance:
    """:class:`InstanceBuilder` of the ``vc-mesh`` kind."""
    if spec.faults:
        from repro.network.faults import (
            FaultyMesh2D,
            healthy_topology,
            sample_fault_spec,
        )

        width, height = spec.dims
        healthy = healthy_topology(Mesh2D, width, height)
        fault_spec = sample_fault_spec(healthy, spec.faults, spec.fault_seed)
        mesh = FaultyMesh2D(width, height, fault_spec)
        return _build_vc_faulty(spec, "mesh", mesh, style="xy",
                                with_adaptive=True)
    return build_vc_mesh_instance(
        spec.dims[0], spec.dims[1], num_vcs=spec.num_vcs,
        buffer_capacity=spec.buffers, route_policy=spec.route_policy,
        measure=resolve_measure(spec.measure))


def build_vc_torus_from_spec(spec: ScenarioSpec) -> VCNoCInstance:
    """:class:`InstanceBuilder` of the ``vc-torus`` kind."""
    if spec.faults:
        from repro.network.faults import (
            FaultyTorus2D,
            healthy_topology,
            sample_fault_spec,
        )

        width, height = spec.dims
        healthy = healthy_topology(Torus2D, width, height)
        fault_spec = sample_fault_spec(healthy, spec.faults, spec.fault_seed)
        torus = FaultyTorus2D(width, height, fault_spec)
        # Like the healthy builder: an adaptive class exists from 3 VCs up.
        return _build_vc_faulty(spec, "torus", torus, style="dateline",
                                with_adaptive=spec.num_vcs > 2)
    return build_vc_torus_instance(
        spec.dims[0], spec.dims[1], num_vcs=spec.num_vcs,
        buffer_capacity=spec.buffers, route_policy=spec.route_policy,
        measure=resolve_measure(spec.measure))


def build_vc_ring_from_spec(spec: ScenarioSpec) -> VCNoCInstance:
    """:class:`InstanceBuilder` of the ``vc-ring`` kind."""
    if spec.faults:
        from repro.network.faults import (
            FaultyRing,
            healthy_topology,
            sample_fault_spec,
        )

        size = spec.dims[0]
        fault_spec = sample_fault_spec(healthy_topology(Ring, size),
                                       spec.faults, spec.fault_seed,
                                       allow_routers=False)
        ring = FaultyRing(size, fault_spec)
        return _build_vc_faulty(spec, "ring", ring, style="dateline",
                                with_adaptive=False)
    return build_vc_ring_instance(
        spec.dims[0], num_vcs=spec.num_vcs,
        buffer_capacity=spec.buffers, route_policy=spec.route_policy,
        measure=resolve_measure(spec.measure))
