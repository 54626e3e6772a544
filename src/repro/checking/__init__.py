"""Formal-checking substrate.

The paper discharges its proof obligations in the ACL2 theorem prover; the
reproduction hint suggests NuSMV/Z3 style automated checking.  Neither is
available offline, so this package implements the needed checking machinery
from scratch:

* :mod:`repro.checking.graphs` -- the linear-time cycle search the paper
  mentions for fixed-size instances (Section VII): a DFS that hands each
  answer over with a certificate (a numbering every edge descends, or a
  cycle), the small checker that re-checks it, and the Kahn peel behind
  :class:`repro.core.deadlock.DeadlockQuerySession`.
* :mod:`repro.checking.ts`, :mod:`repro.checking.bmc` -- explicit-state
  transition systems and reachability analysis (the stand-in for NuSMV),
  used to validate Theorem 1 empirically by exhaustive exploration of small
  NoC state spaces.

The package re-exports nothing: import from the module (e.g.
``from repro.checking.graphs import find_cycle_dfs``), so a default run
loads the graph algorithms and nothing else of this package.
"""
