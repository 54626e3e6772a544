"""A second GeNoC instantiation: ring NoCs.

The GeNoC methodology is generic; the paper's predecessors instantiated it
on the Spidergon ring-based topology.  :mod:`repro.ringnoc.instantiation`
provides a ring-based instantiation to demonstrate the same genericity with
the machinery of this library:

* ``build_chain_ring_instance`` -- a bidirectional ring routed as a chain
  (the wrap-around link is never used).  Its dependency graph is acyclic,
  all five obligations are dischargeable and the instance is
  deadlock-free: a second *positive* instantiation.
* ``build_clockwise_ring_instance`` -- a ring routed strictly clockwise
  through the wrap-around link.  Its dependency graph is one big cycle, so
  (C-3) fails, the sufficiency construction of Theorem 1 produces a
  concrete deadlock configuration, and suitable workloads deadlock in
  simulation: the *negative* instantiation used by the Theorem 1
  benchmark.
"""
