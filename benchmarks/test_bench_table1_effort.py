"""Table I: verification effort per proof-development component.

The paper's Table I reports, for the ACL2 development, the lines/theorems/
functions/CPU-minutes/human-days per component (Rxy, Iid/(C-4), Swh/(C-5),
(C-1)xy, (C-2)xy, (C-3)xy, the generic definitions, CorrThm and
Dead/EvacThm).  This benchmark regenerates the analogous table for the Python
reproduction: per component, the number of automated checks discharged, the
implementing source lines/functions, and the wall-clock time, for HERMES
meshes of several sizes.

Shape expectations reproduced from the paper:
* every obligation holds (the table is only meaningful because the
  instantiation verifies);
* (C-1)/(C-2) are dominated by many mechanical case distinctions;
* (C-3) carries the largest structural effort (it is the only obligation
  needing the parametric flows argument);
* only the upper (instance-specific) part of the table changes with the
  instantiation -- the generic rows are constant.
"""

import pytest

from benchmarks.conftest import report
from repro.hermes.proofs import discharge_all
from repro.reporting.effort import build_effort_table
from repro.reporting.tables import format_table


@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_bench_discharge_all_obligations(benchmark, size):
    """Time the full obligation discharge (the 'CPU' column) per mesh size."""
    result = benchmark(discharge_all, size, size)
    assert result.all_hold
    rows = [[name, res.checks, f"{res.elapsed_seconds:.4f}"]
            for name, res in sorted(result.results.items())]
    report(f"Table I (obligation checks), HERMES {size}x{size}",
           format_table(["Obligation", "Checks", "Seconds"], rows))


def test_bench_effort_table_4x4(benchmark):
    """Assemble the full Table I analogue for a 4x4 mesh."""
    table = benchmark.pedantic(build_effort_table, args=(4, 4), rounds=3,
                               iterations=1)
    report("Table I analogue (HERMES 4x4)", table.formatted())
    # Shape: instance-specific rows carry checks; generic rows measure the
    # framework only.
    assert table.row("(C-1)xy").checks > 0
    assert table.row("(C-3)xy").checks > table.row("Iid, (C-4)").checks
    assert table.row("Generic Defs").lines > 0


def test_bench_effort_scaling_with_mesh_size(benchmark):
    """The instance-specific check counts grow with the mesh; the generic
    part does not (the paper: 'Only the upper part of table I is
    instantiation-specific')."""

    def build_two():
        return discharge_all(2, 2), discharge_all(5, 5)

    small, large = benchmark.pedantic(build_two, rounds=1, iterations=1)
    rows = []
    for name in sorted(small.results):
        rows.append([name, small.results[name].checks,
                     large.results[name].checks])
    report("Obligation checks: 2x2 vs 5x5",
           format_table(["Obligation", "2x2", "5x5"], rows))
    assert large.results["C-1"].checks > small.results["C-1"].checks
    assert large.results["C-2"].checks > small.results["C-2"].checks
    assert large.results["C-3"].checks > small.results["C-3"].checks
