"""Virtual channels: multiplexing a physical port into per-VC lanes.

The paper's Theorem 1 decides deadlock freedom on a dependency graph whose
vertices are *ports*.  Every modern NoC multiplexes each physical port into
``k`` **virtual channels** (VCs): each VC has its own flit FIFO and its own
worm ownership, while the physical link bandwidth is shared.  The deadlock
condition must then be checked at ``(port, vc)`` granularity -- and the
classic repair for deadlock-prone adaptive routing (Duato's methodology)
*requires* VCs: an adaptive VC class that may route freely plus a restricted
*escape* VC class whose dependency subgraph is acyclic.

This module provides the resource layer of that story:

* :class:`VirtualChannel` -- the ``(port, vc)`` pair, a named tuple with the
  value contract of :class:`~repro.network.port.Port` (it equals its field
  tuple, never a port, and raises ``TypeError`` ordered against one),
  usable everywhere a port is used as a state key, route element or
  dependency-graph vertex;
* :class:`VCTopology` -- a view of a base topology whose resource set is the
  channels instead of the ports: every cardinal port contributes ``num_vcs``
  channels, local (IP interface) ports contribute one.  Because
  :class:`~repro.core.state.NetworkState`, the routing enumeration and the
  route validators only use the topology through its port-set interface,
  instantiating them over a :class:`VCTopology` gives per-VC FIFOs, per-VC
  worm ownership and a ``(port, vc)``-granular dependency graph without
  touching those layers.

``num_vcs = 1`` is the degenerate case: one channel per port, and the whole
machinery coincides with the paper's single-VC model.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from repro.network.node import Node
from repro.network.port import Port, neighbour_node, parse_port
from repro.network.topology import Topology


class VirtualChannel(NamedTuple):
    """A virtual channel ``(port, vc)``: one lane of a physical port.

    Channels are immutable and hashable so they can serve as network-state
    keys, route elements and dependency-graph vertices -- exactly the three
    roles ports play in the single-VC model.
    """

    port: Port
    vc: int

    # -- port-interface delegation (so channels drop in where ports do) -----
    @property
    def x(self) -> int:
        return self.port.x

    @property
    def y(self) -> int:
        return self.port.y

    @property
    def name(self):
        return self.port.name

    @property
    def direction(self):
        return self.port.direction

    @property
    def node(self) -> Tuple[int, int]:
        return self.port.node

    @property
    def is_input(self) -> bool:
        return self.port.is_input

    @property
    def is_output(self) -> bool:
        return self.port.is_output

    @property
    def is_local(self) -> bool:
        return self.port.is_local

    @property
    def is_cardinal(self) -> bool:
        return self.port.is_cardinal

    def with_vc(self, vc: int) -> "VirtualChannel":
        """The channel with the given VC index on the same physical port."""
        return VirtualChannel(self.port, vc)

    def __str__(self) -> str:
        return f"{self.port}#{self.vc}"


#: A network resource: a plain port (single-VC model) or a virtual channel.
Resource = Union[Port, VirtualChannel]


def port_of(resource: Resource) -> Port:
    """The physical port of a resource (identity for plain ports)."""
    if isinstance(resource, VirtualChannel):
        return resource.port
    return resource


def vc_of(resource: Resource) -> int:
    """The VC index of a resource (0 for plain ports: the degenerate case)."""
    if isinstance(resource, VirtualChannel):
        return resource.vc
    return 0


def channels_of(port: Port, num_vcs: int) -> List[VirtualChannel]:
    """The channels a port contributes to a ``num_vcs``-channel network.

    Cardinal ports are multiplexed into ``num_vcs`` lanes; local ports are
    the IP-core interface, which has no virtual channels -- it contributes a
    single channel (index 0).
    """
    if num_vcs < 1:
        raise ValueError("a network has at least one virtual channel")
    if port.is_local:
        return [VirtualChannel(port, 0)]
    return [VirtualChannel(port, vc) for vc in range(num_vcs)]


def parse_channel(text: str) -> VirtualChannel:
    """Parse the string form ``<x,y,P,D>#v`` back into a channel."""
    stripped = text.strip()
    if "#" not in stripped:
        raise ValueError(f"not a channel literal: {text!r}")
    port_text, _, vc_text = stripped.rpartition("#")
    return VirtualChannel(parse_port(port_text), int(vc_text))


class VCTopology:
    """A channel-granular view of a base :class:`Topology`.

    Exposes the same structural interface as a topology -- ``ports`` (the
    channels), ``has_port``, ``link_target``, ``local_in_ports`` /
    ``local_out_ports``, ``node_at``, ``describe`` -- so that network states,
    routing enumeration and route validation work at VC granularity
    unchanged.  A physical link carries the VC index across: the out-channel
    ``(p, v)`` feeds the in-channel ``(q, v)`` of the port ``q`` that ``p``
    is wired to.
    """

    def __init__(self, base: Topology, num_vcs: int) -> None:
        if num_vcs < 1:
            raise ValueError("a network has at least one virtual channel")
        self.base = base
        self.num_vcs = int(num_vcs)
        self._channels: List[VirtualChannel] = []
        for port in base.ports:
            self._channels.extend(channels_of(port, self.num_vcs))
        self._channel_index: Dict[VirtualChannel, VirtualChannel] = {
            channel: channel for channel in self._channels}
        self._links: Dict[VirtualChannel, VirtualChannel] = {}
        for out_port, in_port in base.links.items():
            for channel in channels_of(out_port, self.num_vcs):
                self._links[channel] = VirtualChannel(in_port, channel.vc)

    # -- the topology interface, at channel granularity ---------------------
    @property
    def ports(self) -> List[VirtualChannel]:
        """All channels of the network, in deterministic order."""
        return list(self._channels)

    @property
    def port_count(self) -> int:
        return len(self._channels)

    def has_port(self, resource: Resource) -> bool:
        return resource in self._channel_index

    def intern(self, resource: Resource) -> Optional[VirtualChannel]:
        """The topology's own channel equal to ``resource``, or ``None``."""
        return self._channel_index.get(resource)

    def link_target(self, channel: VirtualChannel
                    ) -> Optional[VirtualChannel]:
        """The in-channel fed by an out-channel (same VC index)."""
        return self._links.get(channel)

    @property
    def links(self) -> Dict[VirtualChannel, VirtualChannel]:
        return dict(self._links)

    def local_in_ports(self) -> List[VirtualChannel]:
        """All injection channels (local in-ports, single channel each)."""
        return [VirtualChannel(port, 0) for port in self.base.local_in_ports()]

    def local_out_ports(self) -> List[VirtualChannel]:
        """All ejection channels (local out-ports, single channel each)."""
        return [VirtualChannel(port, 0)
                for port in self.base.local_out_ports()]

    # -- node-level structure (delegated to the base topology) --------------
    @property
    def nodes(self) -> List[Node]:
        return self.base.nodes

    @property
    def node_count(self) -> int:
        return self.base.node_count

    def node_at(self, x: int, y: int) -> Node:
        return self.base.node_at(x, y)

    def has_node(self, x: int, y: int) -> bool:
        return self.base.has_node(x, y)

    def validate(self) -> None:
        self.base.validate()

    def describe(self) -> Dict[str, int]:
        description = dict(self.base.describe())
        description.update({
            "virtual_channels": self.num_vcs,
            "channels": self.port_count,
        })
        return description

    def __str__(self) -> str:
        return f"VC[{self.num_vcs}]({self.base})"


def is_wrap_link(topology: Topology, out_port: Port) -> bool:
    """Does ``out_port``'s physical link wrap around the topology?

    A link is a wrap-around (dateline-crossing) link when the node it
    actually reaches differs from the node plain coordinate arithmetic says
    a port of that name points to -- e.g. the East out-port of the last
    column of a torus or ring.  Wrap links are where dateline escape routing
    switches VC class.
    """
    if out_port.is_local or not out_port.is_output:
        return False
    target = topology.link_target(out_port)
    if target is None:
        return False
    return target.node != neighbour_node(out_port)
