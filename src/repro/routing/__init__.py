"""Routing-function library.

The paper's instantiation uses XY routing on a 2D mesh; this package adds
the classical alternatives used by the benchmarks and ablations:

* :mod:`repro.routing.xy`, :mod:`repro.routing.yx` -- deterministic
  dimension-order routing (the paper's ``Rxy`` is ``XYRouting``), on the
  shared base of :mod:`repro.routing.dimension_order`.
* :mod:`repro.routing.turn_model` -- partially adaptive turn-model routing
  (west-first, north-last, negative-first, odd-even): the "adaptive
  routing" direction of the paper's future work.
* :mod:`repro.routing.adaptive` -- unrestricted minimal adaptive routing:
  the deliberately deadlock-prone negative baseline whose dependency graph
  contains cycles.
* :mod:`repro.routing.ring`, :mod:`repro.routing.torus` -- ring and torus
  routings; the clockwise and shortest-path ring routings have cyclic
  dependency graphs (the textbook ring deadlock), the chain routing never
  uses the wrap-around link and is deadlock-free.
* :mod:`repro.routing.escape` -- Duato-style escape-channel relations over
  virtual channels; :mod:`repro.routing.fault_aware` -- reroutes around
  injected faults.
* :mod:`repro.routing.base` -- the mesh routing base class and the route
  table every dependency enumeration reads.
"""
