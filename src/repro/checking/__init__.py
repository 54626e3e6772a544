"""Formal-checking substrate.

The paper discharges its proof obligations in the ACL2 theorem prover; the
reproduction hint suggests NuSMV/Z3 style automated checking.  Neither is
available offline, so this package implements the needed checking machinery
from scratch:

* :mod:`repro.checking.graphs` -- cycle detection (DFS), strongly connected
  components (Tarjan), topological sorting: the classical linear-time checks
  the paper mentions for fixed-size instances (Section VII) and the related
  Taktak et al. approach (Section VIII).
* :mod:`repro.checking.cnf`, :mod:`repro.checking.sat` -- CNF formulas and
  an incremental CDCL SAT solver (the stand-in for Z3).
* :mod:`repro.checking.encodings` -- the SAT encoding of graph acyclicity
  (topological numbering with comparator ladders), shared by the one-shot
  ``sat`` discharge of (C-3) and by
  :class:`repro.core.deadlock.DeadlockQuerySession`, the solver's
  incremental client.
* :mod:`repro.checking.ts`, :mod:`repro.checking.bmc` -- explicit-state
  transition systems and reachability analysis (the stand-in for NuSMV),
  used to validate Theorem 1 empirically by exhaustive exploration of small
  NoC state spaces.

The package re-exports nothing: import from the module (e.g.
``from repro.checking.graphs import find_cycle_dfs``), so a default run
loads the graph algorithms and never the SAT stack.
"""
