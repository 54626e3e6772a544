"""The HERMES instantiation of GeNoC (paper Sections II, V and VI).

This package is the "user input" of the methodology for a parametric 2D-mesh
NoC inspired by HERMES:

* :mod:`repro.hermes.ports` -- the port algebra: ``next_outs`` and
  ``find_dest`` (Sections V.6 and VI-A).
* :mod:`repro.hermes.injection` -- the identity injection method ``Iid``.
* :mod:`repro.hermes.dependency` -- the declared dependency graph
  ``Exy_dep``.
* :mod:`repro.hermes.flows` -- the flows of Fig. 4 and the rank certificate
  that discharges (C-3) parametrically.
* :mod:`repro.hermes.proofs` -- the discharge of (C-1) ... (C-5) for
  concrete mesh sizes plus the parametric certificate.
* :mod:`repro.hermes.instantiation` -- ``GeNoC2D``: bundling everything into
  a :class:`~repro.core.instance.NoCInstance`, and the builder of the
  ``mesh`` scenario kind.

The XY routing function ``Rxy`` is :class:`repro.routing.xy.XYRouting`.
"""
