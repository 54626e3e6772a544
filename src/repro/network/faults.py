"""Seeded link/router fault injection over the regular topologies.

The paper proves deadlock freedom for *healthy* fabrics; a fault-tolerant
NoC reroutes around dead links and routers, and the interesting question is
whether the rerouted relation still satisfies the deadlock condition.  This
module provides the deterministic fault model behind the ``faults=k`` /
``seed=n`` terms of the scenario grammar:

* :class:`FaultSpec` -- a frozen description of the injected faults: dead
  undirected links (node pairs) and dead routers (node coordinates);
* :func:`sample_fault_spec` -- the seeded sampler: draws ``faults`` faults
  over a base topology, rejecting any draw that would disconnect the
  surviving node graph (or leave fewer than two routers), so every sampled
  fabric can still route between all surviving endpoints.  The RNG is
  seeded from ``zlib.crc32`` over the topology/seed description -- never
  from Python's salted ``hash()`` -- so the same spec yields the same
  faults in every process, interpreter and CI shard;
* :class:`FaultyMesh2D` / :class:`FaultyTorus2D` / :class:`FaultyRing` --
  the base topologies with the faults applied structurally: dead routers
  are not built, and a dead link removes the port *name* on both endpoint
  nodes (a cardinal port name corresponds one-to-one to the undirected
  link it serves, so name removal deletes both directions symmetrically
  and :meth:`~repro.network.topology.Topology.validate` still holds).

Faults are keyed by node pairs: on degenerate wrap topologies (a ring or
torus of extent 2, where two physical links join the same node pair) one
dead link kills the whole pair.  The connectivity check sees the same node
graph, so validated fault sets remain routable either way.
"""

from __future__ import annotations

import functools
import random
import zlib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.errors import SpecificationError
from repro.network.mesh import Mesh2D
from repro.network.node import Node
from repro.network.port import OFFSETS, Port, PortName
from repro.network.ring import Ring
from repro.network.topology import Topology
from repro.network.torus import Torus2D

Coordinate = Tuple[int, int]
#: An undirected link, canonically ordered (smaller endpoint first).
LinkKey = Tuple[Coordinate, Coordinate]


def link_key(a: Coordinate, b: Coordinate) -> LinkKey:
    """The canonical (order-independent) key of an undirected link."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class FaultSpec:
    """A frozen set of injected faults: dead links and dead routers."""

    dead_links: Tuple[LinkKey, ...] = ()
    dead_routers: Tuple[Coordinate, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "dead_links",
                           tuple(sorted(link_key(a, b)
                                        for a, b in self.dead_links)))
        object.__setattr__(self, "dead_routers",
                           tuple(sorted(tuple(r)
                                        for r in self.dead_routers)))

    @property
    def count(self) -> int:
        return len(self.dead_links) + len(self.dead_routers)

    def is_dead_link(self, a: Coordinate, b: Coordinate) -> bool:
        return link_key(a, b) in self.dead_links

    def is_dead_router(self, node: Coordinate) -> bool:
        return node in self.dead_routers

    def describe(self) -> str:
        """A short deterministic tag, e.g. ``L(0,0)-(1,0)+R(2,2)``."""
        parts = [f"L({a[0]},{a[1]})-({b[0]},{b[1]})"
                 for a, b in self.dead_links]
        parts.extend(f"R({x},{y})" for x, y in self.dead_routers)
        return "+".join(parts) if parts else "none"


def node_adjacency(topology: Topology) -> Dict[Coordinate, Set[Coordinate]]:
    """The undirected node-adjacency graph of a topology's links."""
    adjacency: Dict[Coordinate, Set[Coordinate]] = {
        node.coordinates: set() for node in topology.nodes}
    for out_port, in_port in topology.links.items():
        adjacency[out_port.node].add(in_port.node)
        adjacency[in_port.node].add(out_port.node)
    return adjacency


def surviving_graph_connected(adjacency: Dict[Coordinate, Set[Coordinate]],
                              dead_links: Iterable[LinkKey],
                              dead_routers: Iterable[Coordinate]) -> bool:
    """Is the node graph minus the faults still one connected component?

    Also requires every surviving node to keep at least one live link
    (implied by connectivity once at least two nodes survive).
    """
    dead_link_set = set(dead_links)
    dead_router_set = set(dead_routers)
    alive = [node for node in adjacency if node not in dead_router_set]
    if len(alive) < 2:
        return False
    frontier = [alive[0]]
    seen = {alive[0]}
    while frontier:
        node = frontier.pop()
        for neighbour in adjacency[node]:
            if neighbour in dead_router_set or neighbour in seen:
                continue
            if link_key(node, neighbour) in dead_link_set:
                continue
            seen.add(neighbour)
            frontier.append(neighbour)
    return len(seen) == len(alive)


def fault_rng(topology: Topology, faults: int, seed: int) -> random.Random:
    """The deterministic RNG of a fault draw (crc32-seeded, never hash())."""
    key = f"faults:{topology}:{faults}:{seed}"
    return random.Random(zlib.crc32(key.encode("utf-8")))


@functools.lru_cache(maxsize=None)
def healthy_topology(topology_class, *args) -> Topology:
    """One healthy ``topology_class(*args)`` per class and arguments, for
    the builders' fault draws, which only read it."""
    return topology_class(*args)


def sample_fault_spec(topology: Topology, faults: int, seed: int,
                      allow_routers: bool = True,
                      router_bias: float = 0.2) -> FaultSpec:
    """Draw ``faults`` seeded faults that keep the fabric connected.

    Faults are drawn one at a time: each draw picks a router kill with
    probability ``router_bias`` (when allowed) and a link kill otherwise,
    then tries the class's candidates in seeded random order until one
    keeps the surviving node graph connected; the classes fall back on
    each other when one is exhausted.  Raises
    :class:`~repro.core.errors.SpecificationError` when no placement of
    the requested fault count keeps the fabric connected (e.g. more link
    faults than a small ring can spare).
    """
    if faults < 0:
        raise SpecificationError("fault count must be non-negative")
    if faults == 0:
        return FaultSpec()
    adjacency = node_adjacency(topology)
    all_links = sorted({link_key(a, b)
                        for a, neighbours in adjacency.items()
                        for b in neighbours})
    all_routers = sorted(adjacency)
    rng = fault_rng(topology, faults, seed)
    dead_links: List[LinkKey] = []
    dead_routers: List[Coordinate] = []

    def try_links() -> bool:
        candidates = [link for link in all_links
                      if link not in dead_links
                      and not set(link) & set(dead_routers)]
        rng.shuffle(candidates)
        for link in candidates:
            if surviving_graph_connected(adjacency, dead_links + [link],
                                         dead_routers):
                dead_links.append(link)
                return True
        return False

    def try_routers() -> bool:
        candidates = [node for node in all_routers
                      if node not in dead_routers]
        rng.shuffle(candidates)
        for node in candidates:
            if surviving_graph_connected(adjacency, dead_links,
                                         dead_routers + [node]):
                dead_routers.append(node)
                return True
        return False

    for _ in range(faults):
        prefer_router = allow_routers and rng.random() < router_bias
        placed = (try_routers() or try_links()) if prefer_router \
            else (try_links() or (allow_routers and try_routers()))
        if not placed:
            raise SpecificationError(
                f"cannot place {faults} fault(s) on {topology} "
                f"(seed {seed}) without disconnecting the fabric")
    return FaultSpec(dead_links=tuple(dead_links),
                     dead_routers=tuple(dead_routers))


# ---------------------------------------------------------------------------
# Faulty topologies: the regular topologies with the faults applied
# ---------------------------------------------------------------------------

class FaultyMesh2D(Mesh2D):
    """A 2D mesh with a validated :class:`FaultSpec` applied."""

    def __init__(self, width: int, height: int, faults: FaultSpec) -> None:
        self.fault_spec = faults
        super().__init__(width, height)

    def build_nodes(self) -> Iterable[Node]:
        for node in super().build_nodes():
            if self.fault_spec.is_dead_router(node.coordinates):
                continue
            yield Node(node.x, node.y,
                       present_names=self._surviving_names(node))

    def _surviving_names(self, node: Node) -> Tuple[PortName, ...]:
        names: List[PortName] = []
        for name in node.present_names:
            if name is PortName.LOCAL:
                names.append(name)
                continue
            neighbour = self._neighbour_of(node.coordinates, name)
            if self.fault_spec.is_dead_router(neighbour):
                continue
            if self.fault_spec.is_dead_link(node.coordinates, neighbour):
                continue
            names.append(name)
        return tuple(names)

    def _neighbour_of(self, node: Coordinate, name: PortName) -> Coordinate:
        dx, dy = OFFSETS[name]
        return (node[0] + dx, node[1] + dy)

    def __str__(self) -> str:
        return f"{super().__str__()}~{self.fault_spec.describe()}"


class FaultyTorus2D(Torus2D):
    """A 2D torus with a validated :class:`FaultSpec` applied."""

    def __init__(self, width: int, height: int, faults: FaultSpec) -> None:
        self.fault_spec = faults
        super().__init__(width, height)

    def build_nodes(self) -> Iterable[Node]:
        for node in super().build_nodes():
            if self.fault_spec.is_dead_router(node.coordinates):
                continue
            names: List[PortName] = []
            for name in node.present_names:
                if name is PortName.LOCAL:
                    names.append(name)
                    continue
                dx, dy = OFFSETS[name]
                neighbour = self.wrap(node.x + dx, node.y + dy)
                if self.fault_spec.is_dead_router(neighbour):
                    continue
                if self.fault_spec.is_dead_link(node.coordinates, neighbour):
                    continue
                names.append(name)
            yield Node(node.x, node.y, present_names=tuple(names))

    def connect(self, out_port: Port) -> Optional[Port]:
        target = super().connect(out_port)
        if target is None:
            return None
        if self.fault_spec.is_dead_router(target.node):
            return None
        if self.fault_spec.is_dead_link(out_port.node, target.node):
            return None
        return target

    def __str__(self) -> str:
        return f"{super().__str__()}~{self.fault_spec.describe()}"


class FaultyRing(Ring):
    """A bidirectional ring with a validated :class:`FaultSpec` applied."""

    def __init__(self, size: int, faults: FaultSpec) -> None:
        self.fault_spec = faults
        super().__init__(size, bidirectional=True)

    def build_nodes(self) -> Iterable[Node]:
        for node in super().build_nodes():
            if self.fault_spec.is_dead_router(node.coordinates):
                continue
            names: List[PortName] = []
            for name in node.present_names:
                if name is PortName.LOCAL:
                    names.append(name)
                    continue
                step = 1 if name is PortName.EAST else -1
                neighbour = ((node.x + step) % self.size, 0)
                if self.fault_spec.is_dead_router(neighbour):
                    continue
                if self.fault_spec.is_dead_link(node.coordinates, neighbour):
                    continue
                names.append(name)
            yield Node(node.x, node.y, present_names=tuple(names))

    def connect(self, out_port: Port) -> Optional[Port]:
        target = super().connect(out_port)
        if target is None:
            return None
        if self.fault_spec.is_dead_router(target.node):
            return None
        if self.fault_spec.is_dead_link(out_port.node, target.node):
            return None
        return target

    def __str__(self) -> str:
        return f"{super().__str__()}~{self.fault_spec.describe()}"
