#!/usr/bin/env python
"""Instantiating GeNoC on your own NoC design.

The GeNoC methodology is generic: supply the constituents (injection,
routing, switching), a dependency graph and a witness function, and the
framework discharges the obligations and concludes the theorems.  This
example builds two instantiations that are *not* the paper's HERMES case
study:

* a 5-node bidirectional ring routed as a chain (never using the wrap-around
  link) -- a second deadlock-free design;
* a 4x4 mesh with YX routing and store-and-forward switching -- an ablation
  of the HERMES design (same topology, different constituents).

Run with::

    python examples/custom_noc.py
"""

from __future__ import annotations

from repro.core.obligations import check_c3_routing_induced
from repro.core.pipeline import verify_instance
from repro.hermes.instantiation import build_hermes_instance
from repro.ringnoc.instantiation import build_chain_ring_instance
from repro.routing.yx import YXRouting
from repro.simulation.simulator import Simulator
from repro.simulation.workloads import uniform_random_traffic
from repro.switching.store_and_forward import StoreAndForwardSwitching


def demo_chain_ring() -> None:
    print("-" * 72)
    print("Custom instantiation 1: 5-node ring, chain routing")
    print("-" * 72)
    instance = build_chain_ring_instance(5, buffer_capacity=2)
    workloads = [
        [instance.make_travel((0, 0), (4, 0), num_flits=3),
         instance.make_travel((4, 0), (0, 0), num_flits=3),
         instance.make_travel((2, 0), (3, 0), num_flits=2)],
        [instance.make_travel((index, 0), ((index + 1) % 5, 0), num_flits=2)
         for index in range(4)],
    ]
    report = verify_instance(instance, workloads=workloads)
    print(report.summary())
    print()


def demo_yx_store_and_forward() -> None:
    print("-" * 72)
    print("Custom instantiation 2: 4x4 mesh, YX routing, store-and-forward")
    print("-" * 72)
    from repro.network.mesh import Mesh2D

    mesh_size = 4
    packet_flits = 3
    instance = build_hermes_instance(
        mesh_size, mesh_size,
        # Store-and-forward needs ports deep enough for a whole packet.
        buffer_capacity=packet_flits,
        routing=YXRouting(Mesh2D(mesh_size, mesh_size)),
        switching=StoreAndForwardSwitching())
    print("Instance:", instance.describe())

    # YX routing has no declared Exy_dep (that graph is XY-specific), so
    # check (C-3) on the routing-induced dependency graph instead.
    c3 = check_c3_routing_induced(instance.routing)
    print(f"(C-3) on the routing-induced graph: "
          f"{'holds' if c3.holds else 'VIOLATED'}")

    workload = uniform_random_traffic(instance, num_messages=20,
                                      num_flits=packet_flits, seed=42)
    result = Simulator(instance).run(workload)
    print(result.summary())
    print(f"correctness: {result.correctness_ok}, "
          f"evacuation: {result.evacuation_ok}")
    print()


def main() -> None:
    demo_chain_ring()
    demo_yx_store_and_forward()


if __name__ == "__main__":
    main()
