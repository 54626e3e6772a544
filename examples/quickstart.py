#!/usr/bin/env python
"""Quickstart: build a HERMES mesh, send messages, watch them evacuate.

This example exercises the public API end to end:

1. build the HERMES instantiation (``GeNoC2D``) for a 4x4 mesh with two
   1-flit buffers per port (Fig. 1 of the paper);
2. generate a workload of messages;
3. run the GeNoC interpreter until every message has left the network;
4. check the Correctness and Evacuation theorems on the run;
5. discharge the Deadlock theorem on a
   :class:`~repro.core.deadlock.DeadlockQuerySession`: the dependency graph
   is its edge universe, and every question (full condition, restricted
   port subsets) is one Kahn peel of an edge subset;
6. repair a deadlock-prone adaptive design with **virtual channels**: the
   3x3 mesh with fully-adaptive minimal routing has dependency cycles, but
   with 2 VCs and an XY escape class it is proved deadlock-free -- by the
   explicit (V-1)/(V-2) checker and by one peel on a Kahn session -- and
   then simulated on the VC-aware wormhole switching.

For sweeping many designs at once, see the batch driver::

    python -m repro batch --mesh-sizes 3 4 --ring-sizes 4

(programmatically: ``repro.core.portfolio.run_portfolio``).

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.core.deadlock import DeadlockQuerySession
from repro.core.theorems import check_correctness, check_evacuation
from repro.hermes.instantiation import build_hermes_instance
from repro.simulation.simulator import Simulator
from repro.simulation.workloads import (
    transpose_traffic,
    uniform_random_traffic,
)


def main() -> None:
    # 1. The HERMES instantiation: 4x4 mesh, XY routing, wormhole switching,
    #    immediate injection, 2 buffers per port.
    instance = build_hermes_instance(width=4, height=4, buffer_capacity=2)
    print("Instance:", instance.describe())
    print(instance.mesh.ascii_art())
    print()

    # 2. A workload: 24 random messages of 4 flits each, plus the transpose
    #    pattern (every node (x, y) sends to (y, x)).
    random_load = uniform_random_traffic(instance, num_messages=24,
                                         num_flits=4, seed=2010)
    transpose_load = transpose_traffic(instance, num_flits=4)

    # 3. Run GeNoC on both workloads.
    simulator = Simulator(instance, record_trace=True)
    for workload in (random_load, transpose_load):
        result = simulator.run(workload)
        metrics = result.metrics
        print(f"Workload {workload.describe()}")
        print(f"  evacuated : {metrics.evacuated}")
        print(f"  steps     : {metrics.steps}")
        print(f"  avg route : {metrics.average_route_length:.2f} hops")
        print(f"  peak flits in flight: {metrics.peak_flits_in_network}")

        # 4. The theorems, checked on the concrete run.
        original = instance.initial_configuration(list(workload.travels))
        genoc_result = instance.engine().run(original.copy())
        correctness = check_correctness(instance, original, genoc_result)
        evacuation = check_evacuation(instance, original, genoc_result)
        print(f"  CorrThm   : {'holds' if correctness.holds else 'VIOLATED'}")
        print(f"  EvacThm   : {'holds' if evacuation.holds else 'VIOLATED'}")
        print()

    # 5. The Deadlock theorem on a session: the dependency edges form its
    #    universe, and each query peels an edge subset of it.
    session = DeadlockQuerySession(instance.dependency_spec.to_graph(),
                                   name=instance.name)
    print(f"DeadThm (Kahn session over {session.edge_count} edges)")
    print(f"  full condition      : "
          f"{'holds' if session.is_deadlock_free() else 'VIOLATED'}")
    west_half = [(source, target) for source, target in session.edges
                 if source.node[0] < instance.mesh.width // 2
                 and target.node[0] < instance.mesh.width // 2]
    print(f"  restricted to P'    : "
          f"{'holds' if session.is_deadlock_free_edges(west_half) else 'VIOLATED'}"
          f"  ({len(west_half)} edges, same session)")
    print(f"  queries (peels)     : {session.queries}")
    print()

    # 6. Virtual channels: repair a deadlock-prone adaptive design with an
    #    escape VC class, prove it free both ways, then simulate it.
    from repro.core.dependency import channel_dependency_graph, class_edges
    from repro.core.theorems import check_deadlock_freedom_vc
    from repro.vcnoc.instantiation import build_vc_mesh_instance

    prone = build_vc_mesh_instance(3, 3, num_vcs=1)
    fixed = build_vc_mesh_instance(3, 3, num_vcs=2, route_policy="spread")
    print("Virtual-channel escape repair (3x3 mesh, adaptive routing)")
    print(f"  1 VC  (no escape)   : "
          f"{'free' if check_deadlock_freedom_vc(prone.relation).holds else 'DEADLOCK-PRONE'}")
    channels = channel_dependency_graph(fixed.relation)
    explicit = check_deadlock_freedom_vc(fixed.relation, graph=channels)
    # (V-2) on the Kahn session: one peel of the escape-class edges
    # ((V-1) coverage is the explicit check's enumeration).
    vc_session = DeadlockQuerySession(channels, name=fixed.name)
    escape_free = vc_session.is_deadlock_free_edges(
        class_edges(channels, fixed.relation.escape_vcs))
    print(f"  2 VCs (XY escape)   : "
          f"{'free' if explicit.holds else 'DEADLOCK-PRONE'} (explicit), "
          f"escape class {'acyclic' if escape_free else 'CYCLIC'} "
          f"(Kahn session, {vc_session.queries} peel)")
    vc_run = Simulator(fixed).run(
        uniform_random_traffic(fixed, num_messages=16, num_flits=4,
                               seed=2010))
    print(f"  VC wormhole run     : {vc_run.summary()} "
          f"(CorrThm {'holds' if vc_run.correctness_ok else 'VIOLATED'}, "
          f"EvacThm {'holds' if vc_run.evacuation_ok else 'VIOLATED'})")


if __name__ == "__main__":
    main()
