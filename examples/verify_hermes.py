#!/usr/bin/env python
"""The Fig. 2 pipeline: discharge the proof obligations and conclude the theorems.

This example reproduces the paper's methodology end to end for the HERMES
instantiation:

1. discharge obligations (C-1) ... (C-5) for a family of mesh sizes
   (exhaustively per size, plus the parametric rank-certificate argument for
   (C-3));
2. conclude the Deadlock and Evacuation theorems from the obligations;
3. print the verification-effort table (the analogue of the paper's
   Table I).

Run with::

    python examples/verify_hermes.py [max_size]
"""

from __future__ import annotations

import sys

from repro.core.theorems import check_deadlock_freedom
from repro.hermes.flows import check_rank_case_analysis, parametric_c3_holds
from repro.hermes.instantiation import build_hermes_instance
from repro.hermes.proofs import discharge_all
from repro.reporting.effort import build_effort_table


def main(max_size: int = 4) -> None:
    print("=" * 72)
    print("HERMES / GeNoC verification pipeline (paper Fig. 2)")
    print("=" * 72)

    for size in range(2, max_size + 1):
        report = discharge_all(size, size)
        print()
        for line in report.summary_lines():
            print(line)
        instance = build_hermes_instance(size, size)
        deadlock = check_deadlock_freedom(instance)
        print(f"  DeadThm (from C-1..C-3): "
              f"{'holds' if deadlock.holds else 'VIOLATED'}")

    print()
    print("Parametric (arbitrary-size) discharge of (C-3) via the flows/rank")
    print("certificate (paper Fig. 4):")
    cases = check_rank_case_analysis()
    for case in cases:
        status = "ok" if (case.decreases and case.coordinate_independent) \
            else "FAILED"
        print(f"  {case.description:<28} {status}")
    print(f"  => (C-3) holds for all mesh sizes: {parametric_c3_holds(cases)}")

    print()
    print("Verification-effort table (analogue of the paper's Table I):")
    table = build_effort_table(max_size, max_size)
    print(table.formatted())


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 4)
