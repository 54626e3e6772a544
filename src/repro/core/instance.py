"""Bundling an instantiation of GeNoC: the ``NoCInstance``.

The "user input" of the GeNoC methodology (paper Fig. 2) consists of concrete
definitions of the three constituents, a declared dependency graph, a (C-2)
witness function and a termination measure.  :class:`NoCInstance` bundles
them with the topology so that the obligation engine, the theorem checkers,
the verification pipeline, the simulator and the benchmarks can all be
driven from one object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.core.configuration import Configuration, initial_configuration
from repro.core.constituents import (
    InjectionMethod,
    RoutingFunction,
    SwitchingPolicy,
)
from repro.core.dependency import DependencyGraphSpec
from repro.core.measure import Measure, flit_hop_measure, route_length_measure
from repro.core.state import NetworkState
from repro.core.travel import Travel, make_travel
from repro.network.port import Port
from repro.network.topology import Topology

if TYPE_CHECKING:
    from repro.core.genoc import GeNoCEngine, GeNoCResult
    from repro.core.witness import WitnessDestination


@dataclass
class NoCInstance:
    """A complete instantiation of the GeNoC framework."""

    name: str
    topology: Topology
    injection: InjectionMethod
    routing: RoutingFunction
    switching: SwitchingPolicy
    dependency_spec: Optional[DependencyGraphSpec] = None
    witness_destination: Optional[WitnessDestination] = None
    #: The measure used for the (C-5) discharge; defaults to the flit-hop
    #: measure which is strictly decreasing for all shipped policies.
    measure: Measure = flit_hop_measure
    #: The paper's coarser measure, reported alongside for comparison.
    paper_measure: Measure = route_length_measure
    default_capacity: int = 2
    capacities: Optional[Dict[Port, int]] = None

    # -- engines and configurations ----------------------------------------------
    def engine(self, max_steps: Optional[int] = None) -> GeNoCEngine:
        from repro.core.genoc import GeNoCEngine

        return GeNoCEngine(injection=self.injection, routing=self.routing,
                           switching=self.switching, measure=self.measure,
                           max_steps=max_steps)

    def empty_state(self, capacity: Optional[int] = None) -> NetworkState:
        return NetworkState.empty(
            self.topology,
            capacity=capacity if capacity is not None else self.default_capacity,
            capacities=self.capacities)

    def initial_configuration(self, travels: Sequence[Travel],
                              capacity: Optional[int] = None) -> Configuration:
        return initial_configuration(list(travels), self.empty_state(capacity))

    def make_travel(self, source_node, destination_node,
                    num_flits: int = 1) -> Travel:
        """Create a travel between two nodes, using local in/out ports.

        ``source_node`` and ``destination_node`` are ``(x, y)`` coordinate
        pairs.
        """
        source = self.topology.node_at(*source_node).local_in
        destination = self.topology.node_at(*destination_node).local_out
        return make_travel(source, destination, num_flits=num_flits)

    def run(self, travels: Sequence[Travel],
            capacity: Optional[int] = None,
            max_steps: Optional[int] = None,
            check_invariants: bool = False) -> GeNoCResult:
        """Run GeNoC on an initial message list and return the result."""
        config = self.initial_configuration(travels, capacity)
        return self.engine(max_steps=max_steps).run(
            config, check_invariants=check_invariants)

    # -- introspection --------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        description: Dict[str, object] = {
            "name": self.name,
            "topology": str(self.topology),
            "injection": self.injection.name(),
            "routing": self.routing.name(),
            "switching": self.switching.name(),
            "default_capacity": self.default_capacity,
        }
        description.update(self.topology.describe())
        return description
