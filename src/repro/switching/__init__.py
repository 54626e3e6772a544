"""Switching policies.

* :mod:`repro.switching.wormhole` -- the wormhole switching policy ``Swh``
  used by the paper's HERMES instantiation (Section V.4), plus its
  virtual-channel variant ``Svc-wh`` (per-VC buffers/ownership,
  credit-based header allocation, one flit per physical link per step).
* :mod:`repro.switching.store_and_forward` -- store-and-forward packet
  switching (the whole packet occupies one port at a time).
* :mod:`repro.switching.virtual_cut_through` -- virtual cut-through: the
  header only advances when the next port can buffer the entire packet.

All three implement the generic :class:`repro.core.constituents.SwitchingPolicy`
interface plus ``SingleTravelStepper`` (:mod:`repro.switching.base`), which
the explicit-state model checker (:mod:`repro.checking.bmc`) uses to
explore all interleavings.
"""
