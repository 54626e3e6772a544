"""Generic topology machinery.

A :class:`Topology` is the structural part of a GeNoC network model: which
nodes exist, which ports they have and how out-ports connect to in-ports.
It is deliberately independent of routing and switching -- those are the
GeNoC constituents supplied by the user (paper Section III).

Concrete topologies (2D mesh, torus, ring, spidergon) subclass
:class:`Topology` and provide the node list and the connection function.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.network.node import Node
from repro.network.port import Direction, Port, PortName


class Topology(abc.ABC):
    """Abstract base class of network topologies.

    Subclasses implement :meth:`build_nodes` and :meth:`connect`.  The base
    class derives the port set, adjacency queries and consistency checks from
    those two primitives.
    """

    def __init__(self) -> None:
        self._nodes: Dict[Tuple[int, int], Node] = {}
        for node in self.build_nodes():
            if node.coordinates in self._nodes:
                raise ValueError(f"duplicate node {node.coordinates}")
            self._nodes[node.coordinates] = node
        self._ports: List[Port] = []
        for node in self._nodes.values():
            self._ports.extend(node.ports())
        #: Every port mapped to itself: the topology's own port objects.
        self._port_index: Dict[Port, Port] = {port: port
                                              for port in self._ports}
        self._links = self._build_links()

    # -- primitives provided by subclasses -----------------------------------
    @abc.abstractmethod
    def build_nodes(self) -> Iterable[Node]:
        """Yield the nodes of the topology."""

    @abc.abstractmethod
    def connect(self, out_port: Port) -> Optional[Port]:
        """Return the in-port connected to ``out_port``.

        ``None`` means the out-port is a network sink (e.g. a local out-port
        feeding the IP core).
        """

    # -- derived structure ----------------------------------------------------
    def _build_links(self) -> Dict[Port, Port]:
        links: Dict[Port, Port] = {}
        for port in self._ports:
            if not port.is_output:
                continue
            target = self.connect(port)
            if target is None:
                continue
            if target not in self._port_index:
                raise ValueError(
                    f"out-port {port} connects to {target}, which does not exist"
                )
            if not target.is_input:
                raise ValueError(f"out-port {port} connects to non-input {target}")
            links[port] = target
        return links

    # -- queries ---------------------------------------------------------------
    @property
    def nodes(self) -> List[Node]:
        return list(self._nodes.values())

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    def node_at(self, x: int, y: int) -> Node:
        return self._nodes[(x, y)]

    def has_node(self, x: int, y: int) -> bool:
        return (x, y) in self._nodes

    @property
    def ports(self) -> List[Port]:
        """All ports of the network, in deterministic order."""
        return list(self._ports)

    @property
    def port_count(self) -> int:
        return len(self._ports)

    def has_port(self, port: Port) -> bool:
        return port in self._port_index

    def intern(self, port: Port) -> Optional[Port]:
        """The topology's own object equal to ``port``, or ``None``."""
        return self._port_index.get(port)

    def local_in_ports(self) -> List[Port]:
        """All injection ports of the network."""
        return [node.local_in for node in self._nodes.values()]

    def local_out_ports(self) -> List[Port]:
        """All ejection ports of the network."""
        return [node.local_out for node in self._nodes.values()]

    def link_target(self, out_port: Port) -> Optional[Port]:
        """The in-port physically connected to ``out_port`` (None for sinks)."""
        return self._links.get(out_port)

    @property
    def links(self) -> Dict[Port, Port]:
        """Mapping from every connected out-port to the in-port it feeds."""
        return dict(self._links)

    def neighbours(self, node: Node) -> List[Node]:
        """Nodes reachable from ``node`` through one physical link."""
        result = []
        seen: Set[Tuple[int, int]] = set()
        for port in node.out_ports():
            target = self.link_target(port)
            if target is None:
                continue
            if target.node not in seen:
                seen.add(target.node)
                result.append(self._nodes[target.node])
        return result

    # -- validity ---------------------------------------------------------------
    def validate(self) -> None:
        """Check structural sanity of the topology.

        * every connected out-port feeds an existing in-port (checked at
          construction);
        * links are symmetric at node level: if node A has an out-port to
          node B, node B has an out-port back to node A (all topologies in
          this library use bidirectional links);
        * every node has a local in- and out-port.
        """
        for node in self._nodes.values():
            if PortName.LOCAL not in node.present_names:
                raise ValueError(f"node {node.coordinates} has no local port")
        for out_port, in_port in self._links.items():
            back_candidates = [
                p for p in self._nodes[in_port.node].out_ports()
                if self.link_target(p) is not None
                and self.link_target(p).node == out_port.node
            ]
            if not back_candidates:
                raise ValueError(
                    f"link {out_port} -> {in_port} has no reverse link"
                )

    # -- description --------------------------------------------------------------
    def describe(self) -> Dict[str, int]:
        """Structural summary used by the Fig. 1 benchmark and examples."""
        return {
            "nodes": self.node_count,
            "ports": self.port_count,
            "links": len(self._links),
            "injection_ports": len(self.local_in_ports()),
            "ejection_ports": len(self.local_out_ports()),
        }


class ExplicitTopology(Topology):
    """A topology given by an explicit node list and connection mapping.

    Useful for constructing small custom networks in tests and in the
    ``custom_noc`` example without writing a new subclass.
    """

    def __init__(self, nodes: Sequence[Node],
                 connections: Dict[Port, Port]) -> None:
        self._explicit_nodes = list(nodes)
        self._explicit_connections = dict(connections)
        super().__init__()

    def build_nodes(self) -> Iterable[Node]:
        return list(self._explicit_nodes)

    def connect(self, out_port: Port) -> Optional[Port]:
        return self._explicit_connections.get(out_port)
