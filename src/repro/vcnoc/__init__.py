"""Virtual-channel instantiations of GeNoC.

The packages :mod:`repro.hermes` and :mod:`repro.ringnoc` bundle the
paper's single-VC instantiations; this package bundles the virtual-channel
ones in :mod:`repro.vcnoc.instantiation`: a
:class:`~repro.network.vc.VCTopology` over a mesh, torus or ring, a
Duato-style :class:`~repro.routing.escape.EscapeChannelRouting` relation
(adaptive class + escape class, the VC-selection function being part of the
relation) and :class:`~repro.switching.wormhole.VCWormholeSwitching`
(per-VC buffers and worm ownership, credit-based header allocation, shared
physical links).

The deadlock story the builders support end to end:

* ``build_vc_mesh_instance(3, 3, num_vcs=1)`` -- fully-adaptive minimal
  routing on a single channel: the deadlock-prone baseline
  (``repro deadlock`` finds the cycle);
* ``build_vc_mesh_instance(3, 3, num_vcs=2)`` -- the same adaptive routing
  plus one XY escape VC: *proved* deadlock-free by
  :func:`repro.core.theorems.check_deadlock_freedom_vc` (explicitly) and
  by the Kahn-session reference (one peel on a
  :class:`~repro.core.deadlock.DeadlockQuerySession` restricted to the
  escape-class edges, as ``repro deadlock --vcs 2`` runs it);
* ``build_vc_torus_instance(4, 4, num_vcs=2)`` -- the dateline escape pair
  that repairs torus dimension-order routing, plus adaptive VCs on top
  from ``num_vcs >= 3``;
* ``build_vc_ring_instance(4, num_vcs=2)`` -- the dateline repair of the
  ring instantiations of :mod:`repro.ringnoc`.
"""
