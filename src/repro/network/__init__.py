"""Network model substrate for the GeNoC reproduction.

This package provides the concrete data structures that parametric NoC
specifications are built from:

* :mod:`repro.network.port` -- ports, the atomic addressable resources of the
  paper's port-level formalization (Section V.1 of the paper).
* :mod:`repro.network.flit` -- flits, the unit of wormhole switching.
* :mod:`repro.network.buffers` -- FIFO flit buffers attached to ports.
* :mod:`repro.network.node` -- processing nodes (switch + local IP ports).
* :mod:`repro.network.topology` -- generic topology machinery.
* :mod:`repro.network.mesh` -- the 2D-mesh topology of HERMES (Fig. 1a).
* :mod:`repro.network.torus`, :mod:`repro.network.ring` -- additional
  topologies used by the extension instantiations.
* :mod:`repro.network.vc` -- virtual channels: the ``(port, vc)`` resource
  layer (``VirtualChannel``) and the channel-granular topology view
  (``VCTopology``) behind the escape-routing subsystem.
* :mod:`repro.network.faults` -- deterministic fault injection (dead links
  and routers) over the mesh, torus and ring.
"""
