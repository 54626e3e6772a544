#!/usr/bin/env python
"""Both directions of Theorem 1, demonstrated on deadlock-prone designs.

The paper's Theorem 1 says a deterministic routing function is deadlock-free
iff its port dependency graph is acyclic.  This example exhibits the negative
side on two designs that *do* have cycles:

* a ring routed strictly clockwise through the wrap-around link, and
* a deterministic "zig-zag" mesh routing that mixes XY and YX order.

For each design it

1. finds a cycle in the dependency graph (obligation (C-3) fails);
2. constructs a concrete deadlock configuration from the cycle (the
   sufficiency construction) and confirms with the switching policy that no
   message can move;
3. re-extracts a cycle from that deadlock configuration (the necessity
   construction);
4. explores the full state space of a small workload and shows that a
   deadlock is actually *reachable* from an empty network.

Run with::

    python examples/deadlock_demo.py
"""

from __future__ import annotations

from repro.checking.bmc import explore_configuration_space
from repro.checking.graphs import find_cycle_dfs
from repro.core.dependency import routing_dependency_graph
from repro.core.obligations import check_c3_routing_induced
from repro.core.witness import verify_witness_roundtrip
from repro.hermes.instantiation import build_hermes_instance
from repro.hermes.ports import witness_destination
from repro.network.mesh import Mesh2D
from repro.ringnoc.instantiation import (
    build_clockwise_ring_instance,
    ring_witness_destination,
)
from repro.routing.adaptive import ZigZagRouting


def demo_clockwise_ring() -> None:
    print("-" * 72)
    print("Design 1: 4-node ring, strictly clockwise routing")
    print("-" * 72)
    instance = build_clockwise_ring_instance(4)

    # 1. (C-3) fails: the dependency graph has a cycle.
    c3 = check_c3_routing_induced(instance.routing)
    print(f"(C-3) on the routing-induced dependency graph: "
          f"{'holds' if c3.holds else 'VIOLATED'}")
    cycle = find_cycle_dfs(routing_dependency_graph(instance.routing)).cycle
    print("cycle:", " -> ".join(str(p) for p in cycle))

    # 2+3. Sufficiency and necessity: cycle -> deadlock -> cycle.
    roundtrip = verify_witness_roundtrip(
        cycle, instance.routing, instance.switching,
        ring_witness_destination(instance.topology), capacity=1)
    print(f"constructed configuration is a deadlock: {roundtrip.is_deadlock}")
    print(f"cycle recovered from the deadlock: "
          f"{len(roundtrip.recovered_cycle or [])} ports")

    # 4. The deadlock is reachable from an empty network.
    travels = [instance.make_travel((i, 0), ((i + 2) % 4, 0), num_flits=3)
               for i in range(4)]
    search = explore_configuration_space(instance, travels, capacity=1)
    print(f"state-space search: {search}")
    print()


def demo_zigzag_mesh() -> None:
    print("-" * 72)
    print("Design 2: 3x3 mesh, deterministic zig-zag (mixed XY/YX) routing")
    print("-" * 72)
    mesh = Mesh2D(3, 3)
    routing = ZigZagRouting(mesh)
    c3 = check_c3_routing_induced(routing)
    print(f"(C-3) on the routing-induced dependency graph: "
          f"{'holds' if c3.holds else 'VIOLATED'}")
    cycle = find_cycle_dfs(routing_dependency_graph(routing)).cycle
    print("cycle:", " -> ".join(str(p) for p in cycle))

    # For comparison: the same mesh with the paper's XY routing is clean.
    hermes = build_hermes_instance(3, 3)
    c3_xy = check_c3_routing_induced(hermes.routing)
    print(f"same mesh with XY routing, (C-3): "
          f"{'holds' if c3_xy.holds else 'VIOLATED'}")
    print()


def main() -> None:
    demo_clockwise_ring()
    demo_zigzag_mesh()


if __name__ == "__main__":
    main()
