"""The declared dependency graph ``Exy_dep`` of the HERMES instantiation.

``Exy_dep`` (paper Section V.6) connects

* each in-port to the set of out-ports given by ``next_outs`` (the turns XY
  routing can take), and
* each cardinal out-port to the in-port it physically feeds (``next_in``);
* local out-ports are sinks: they deliver to the IP core and have no
  outgoing dependencies.

Fig. 3 of the paper draws this graph for a 2x2 mesh; the Fig. 3 benchmark
regenerates its statistics for a range of mesh sizes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Set

from repro.core.dependency import DependencyGraphSpec
from repro.hermes.ports import next_outs
from repro.network.mesh import Mesh2D
from repro.network.port import Direction, Port, PortName, next_in

if TYPE_CHECKING:
    from repro.checking.graphs import DirectedGraph


class ExyDependencySpec(DependencyGraphSpec):
    """``Exy_dep`` over a concrete 2D mesh."""

    def __init__(self, mesh: Mesh2D) -> None:
        self._mesh = mesh

    @property
    def topology(self) -> Mesh2D:
        return self._mesh

    @property
    def mesh(self) -> Mesh2D:
        return self._mesh

    def edges_from(self, port: Port) -> Set[Port]:
        if port.direction is Direction.IN:
            return next_outs(port, self._mesh)
        if port.name is PortName.LOCAL:
            # Local out-ports deliver to the IP core: no dependencies.
            return set()
        target = next_in(port)
        if not self._mesh.has_port(target):
            # An out-port pointing outside the mesh (cannot happen for
            # meshes built by Mesh2D, which omits such ports).
            return set()
        return {target}


def build_exy_graph(mesh: Mesh2D) -> DirectedGraph[Port]:
    """Materialise ``Exy_dep`` for a mesh as a :class:`DirectedGraph`."""
    return ExyDependencySpec(mesh).to_graph()
