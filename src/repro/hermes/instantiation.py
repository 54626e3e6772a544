"""``GeNoC2D``: the complete HERMES instantiation as a :class:`NoCInstance`.

The paper's Section V.5 defines ``GeNoC2D`` as the instantiation of the
generic ``GeNoC`` function with immediate injection (``Iid``), pre-computed
XY routes (``Rxy``) and wormhole switching (``Swh``).  Here the same bundling
is expressed as a :class:`~repro.core.instance.NoCInstance`, which the
obligation engine, theorem checkers, simulator and benchmarks all consume.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.configuration import Configuration
from repro.core.genoc import GeNoCResult
from repro.core.instance import NoCInstance
from repro.core.measure import flit_hop_measure
from repro.core.spec import ScenarioSpec, resolve_measure, resolve_switching
from repro.core.travel import Travel
from repro.hermes.dependency import ExyDependencySpec
from repro.hermes.injection import Iid
from repro.hermes.ports import witness_destination
from repro.network.mesh import Mesh2D
from repro.network.port import Port
from repro.routing.xy import XYRouting
from repro.switching.wormhole import WormholeSwitching


class MeshWitness:
    """The (C-2) witness function of a mesh, as a picklable callable.

    Instances (and therefore the scenarios of the portfolio driver) must be
    shippable to :class:`concurrent.futures.ProcessPoolExecutor` workers, so
    the witness cannot be a closure over the mesh.
    """

    def __init__(self, mesh: Mesh2D) -> None:
        self._mesh = mesh

    def __call__(self, edge_source: Port, edge_target: Port) -> Port:
        return witness_destination(edge_source, edge_target, self._mesh)


class HermesInstance(NoCInstance):
    """A :class:`NoCInstance` specialised to the HERMES 2D mesh."""

    @property
    def mesh(self) -> Mesh2D:
        assert isinstance(self.topology, Mesh2D)
        return self.topology

    @property
    def width(self) -> int:
        return self.mesh.width

    @property
    def height(self) -> int:
        return self.mesh.height


def build_hermes_instance(width: int, height: int,
                          buffer_capacity: int = 2,
                          switching: Optional[object] = None,
                          routing: Optional[object] = None,
                          measure: Optional[object] = None,
                          mesh: Optional[Mesh2D] = None) -> HermesInstance:
    """Build the HERMES instantiation for a ``width x height`` mesh.

    ``buffer_capacity`` is the number of 1-flit buffers per port (Fig. 1b
    shows two).  ``switching`` and ``routing`` may be overridden to build the
    ablation variants (e.g. store-and-forward switching or YX routing); the
    dependency graph and witness function are only attached when the routing
    is the paper's XY routing, since ``Exy_dep`` is specific to it.
    ``mesh`` overrides the topology (the fault-injected builder path passes
    a :class:`~repro.network.faults.FaultyMesh2D`); the routing must then be
    defined over that same topology.
    """
    plain = mesh is None
    if plain:
        mesh = Mesh2D(width, height)
    routing_fn = routing if routing is not None else XYRouting(mesh)
    switching_fn = switching if switching is not None else WormholeSwitching()
    uses_xy = isinstance(routing_fn, XYRouting)
    dependency = ExyDependencySpec(mesh) if uses_xy else None

    return HermesInstance(
        name=(f"HERMES-{width}x{height}" if plain else f"HERMES-{mesh}"),
        topology=mesh,
        injection=Iid(),
        routing=routing_fn,
        switching=switching_fn,
        dependency_spec=dependency,
        witness_destination=MeshWitness(mesh) if uses_xy else None,
        measure=measure if measure is not None else flit_hop_measure,
        default_capacity=buffer_capacity,
    )


# ---------------------------------------------------------------------------
# The "mesh" scenario kind (registered in repro.core.spec)
# ---------------------------------------------------------------------------

def _mesh_routing(token: str, mesh: Mesh2D):
    """The mesh routing function named by a spec's routing token."""
    from repro.routing.adaptive import (
        FullyAdaptiveMinimalRouting,
        ZigZagRouting,
    )
    from repro.routing.turn_model import (
        NegativeFirstRouting,
        NorthLastRouting,
        OddEvenRouting,
        WestFirstRouting,
    )
    from repro.routing.yx import YXRouting

    routings = {
        "xy": XYRouting,
        "yx": YXRouting,
        "west-first": WestFirstRouting,
        "north-last": NorthLastRouting,
        "negative-first": NegativeFirstRouting,
        "odd-even": OddEvenRouting,
        "adaptive": FullyAdaptiveMinimalRouting,
        "zigzag": ZigZagRouting,
    }
    return routings[token](mesh)


def build_mesh_from_spec(spec: ScenarioSpec) -> HermesInstance:
    """:class:`InstanceBuilder` of the ``mesh`` kind.

    ``faults = 0`` is byte-for-byte the historical healthy construction
    path; ``faults > 0`` samples the deterministic fault set, builds the
    faulty mesh and reroutes via the fault-aware variant of the routing
    token (:mod:`repro.routing.fault_aware`).
    """
    width, height = spec.dims
    if spec.faults:
        from repro.network.faults import FaultyMesh2D, sample_fault_spec
        from repro.routing.fault_aware import fault_aware_mesh_routing

        fault_spec = sample_fault_spec(Mesh2D(width, height), spec.faults,
                                       spec.fault_seed)
        mesh = FaultyMesh2D(width, height, fault_spec)
        routing = fault_aware_mesh_routing(spec.routing, mesh)
    else:
        mesh = Mesh2D(width, height)
        routing = _mesh_routing(spec.routing, mesh)
    return build_hermes_instance(
        width, height,
        buffer_capacity=spec.buffers,
        routing=routing,
        switching=resolve_switching(spec.switching),
        measure=resolve_measure(spec.measure),
        mesh=mesh if spec.faults else None,
    )


def GeNoC2D(config: Configuration, width: int, height: int,
            buffer_capacity: int = 2,
            max_steps: Optional[int] = None) -> GeNoCResult:
    """The paper's ``GeNoC2D`` function, executed on a configuration.

    Runs the HERMES instantiation (immediate injection, pre-computed XY
    routes, wormhole switching) until every message has evacuated or a
    deadlock is reached.
    """
    instance = build_hermes_instance(width, height,
                                     buffer_capacity=buffer_capacity)
    return instance.engine(max_steps=max_steps).run(config)


def run_hermes(width: int, height: int, travels: Sequence[Travel],
               buffer_capacity: int = 2,
               max_steps: Optional[int] = None) -> GeNoCResult:
    """Convenience wrapper: build the instance and run a message list."""
    instance = build_hermes_instance(width, height,
                                     buffer_capacity=buffer_capacity)
    return instance.run(travels, max_steps=max_steps)
