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

Only the graph algorithms are re-exported here: they are what every
verdict runs.  The SAT stack is imported from its own modules (e.g.
``from repro.checking.sat import IncrementalSatSolver``), so a default
run never loads it.
"""

from repro.checking.graphs import (
    DirectedGraph,
    find_cycle_dfs,
    has_cycle,
    is_acyclic,
    strongly_connected_components,
    topological_sort,
    CycleSearchResult,
)

# The configuration-space explorer depends on repro.core, which in turn uses
# the graph algorithms of this package; importing it lazily avoids a circular
# import while keeping ``repro.checking.ConfigurationSpace`` addressable.
_BMC_EXPORTS = {
    "ConfigurationSpace",
    "explore_configuration_space",
    "count_reachable_states",
    "DeadlockSearchResult",
}


def __getattr__(name):
    if name in _BMC_EXPORTS:
        from repro.checking import bmc

        return getattr(bmc, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "DirectedGraph",
    "find_cycle_dfs",
    "has_cycle",
    "is_acyclic",
    "strongly_connected_components",
    "topological_sort",
    "CycleSearchResult",
    "ConfigurationSpace",
    "explore_configuration_space",
    "DeadlockSearchResult",
]
