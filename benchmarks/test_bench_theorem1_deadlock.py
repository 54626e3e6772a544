"""Theorem 1 validation: deadlock-freedom iff no dependency cycle.

The paper proves the equivalence; this benchmark validates both directions
executably and measures the cost of the involved analyses:

* positive designs (HERMES/XY, chain-routed ring): the dependency condition
  holds and exhaustive exploration of every message interleaving finds no
  reachable deadlock;
* negative designs (clockwise ring, zig-zag mesh routing): the condition
  fails, the cycle is converted into a concrete deadlock configuration
  (sufficiency), a cycle is re-extracted from it (necessity), and a deadlock
  is reachable in the state space / reached by the deterministic run.
"""

import pytest

from benchmarks.conftest import report
from repro.checking.bmc import explore_configuration_space
from repro.checking.graphs import find_cycle_dfs
from repro.core.dependency import routing_dependency_graph
from repro.core.obligations import check_c3_routing_induced
from repro.core.witness import verify_witness_roundtrip
from repro.hermes.instantiation import build_hermes_instance
from repro.hermes.ports import witness_destination
from repro.network.mesh import Mesh2D
from repro.reporting.tables import format_table
from repro.ringnoc.instantiation import (
    build_chain_ring_instance,
    build_clockwise_ring_instance,
    ring_witness_destination,
)
from repro.routing.adaptive import FullyAdaptiveMinimalRouting, ZigZagRouting
from repro.routing.turn_model import (
    NegativeFirstRouting,
    NorthLastRouting,
    WestFirstRouting,
)
from repro.routing.xy import XYRouting
from repro.routing.yx import YXRouting
from repro.switching.wormhole import WormholeSwitching


def test_bench_condition_across_routing_functions(benchmark):
    """The dependency condition (C-3) across the routing-function library."""

    def sweep():
        mesh = Mesh2D(4, 4)
        rows = []
        for routing in (XYRouting(mesh), YXRouting(mesh),
                        WestFirstRouting(mesh), NorthLastRouting(mesh),
                        NegativeFirstRouting(mesh),
                        FullyAdaptiveMinimalRouting(mesh),
                        ZigZagRouting(mesh)):
            result = check_c3_routing_induced(routing)
            rows.append([routing.name(), result.holds,
                         result.details["edges"],
                         f"{result.elapsed_seconds * 1000:.1f}"])
        return rows

    rows = benchmark.pedantic(sweep, rounds=2, iterations=1)
    report("(C-3) across routing functions (4x4 mesh)",
           format_table(["routing", "deadlock-free", "dep edges", "ms"],
                        rows))
    verdicts = {row[0]: row[1] for row in rows}
    assert verdicts["Rxy"] and verdicts["Ryx"]
    assert verdicts["Rwest-first"] and verdicts["Rnorth-last"]
    assert verdicts["Rnegative-first"]
    assert not verdicts["Radaptive"]
    assert not verdicts["Rzigzag"]


@pytest.mark.parametrize("size", [4, 6, 8])
def test_bench_sufficiency_witness_on_ring(benchmark, size):
    """cycle -> deadlock configuration -> cycle, on rings of growing size."""
    instance = build_clockwise_ring_instance(size)
    cycle = find_cycle_dfs(routing_dependency_graph(instance.routing)).cycle

    def roundtrip():
        return verify_witness_roundtrip(
            cycle, instance.routing, instance.switching,
            ring_witness_destination(instance.topology), capacity=1)

    result = benchmark(roundtrip)
    assert result.success
    report(f"Theorem 1 witness round trip, ring of {size}",
           f"cycle length {len(cycle)}, deadlock confirmed: "
           f"{result.is_deadlock}, recovered cycle length "
           f"{len(result.recovered_cycle or [])}")


def test_bench_sufficiency_witness_on_zigzag_mesh(benchmark):
    mesh = Mesh2D(3, 3)
    routing = ZigZagRouting(mesh)
    cycle = find_cycle_dfs(routing_dependency_graph(routing)).cycle

    def roundtrip():
        return verify_witness_roundtrip(
            cycle, routing, WormholeSwitching(),
            lambda s, t: witness_destination(s, t, mesh), capacity=1)

    result = benchmark(roundtrip)
    assert result.success


def test_bench_exhaustive_search_positive_hermes(benchmark):
    """No reachable deadlock for HERMES/XY, all interleavings explored."""
    instance = build_hermes_instance(2, 2, buffer_capacity=1)
    travels = [instance.make_travel((0, 0), (1, 1), num_flits=2),
               instance.make_travel((1, 1), (0, 0), num_flits=2),
               instance.make_travel((1, 0), (0, 1), num_flits=2)]

    result = benchmark(explore_configuration_space, instance, travels, 1)
    report("State-space search, HERMES 2x2 / XY", str(result))
    assert result.complete
    assert not result.deadlock_found


def test_bench_exhaustive_search_positive_chain_ring(benchmark):
    instance = build_chain_ring_instance(4, buffer_capacity=1)
    travels = [instance.make_travel((0, 0), (3, 0), num_flits=2),
               instance.make_travel((3, 0), (0, 0), num_flits=2),
               instance.make_travel((1, 0), (3, 0), num_flits=2)]
    result = benchmark(explore_configuration_space, instance, travels, 1)
    report("State-space search, chain ring of 4", str(result))
    assert result.complete
    assert not result.deadlock_found


def test_bench_exhaustive_search_negative_ring(benchmark):
    """A deadlock is reachable on the clockwise ring."""
    instance = build_clockwise_ring_instance(4)
    travels = [instance.make_travel((i, 0), ((i + 2) % 4, 0), num_flits=3)
               for i in range(4)]
    result = benchmark(explore_configuration_space, instance, travels, 1)
    report("State-space search, clockwise ring of 4", str(result))
    assert result.deadlock_found


def test_bench_deterministic_run_reaches_deadlock(benchmark):
    """The plain GeNoC run on the cyclic design also deadlocks (and the
    deadlock analysis recovers a dependency cycle from it)."""
    from repro.core.deadlock import analyse_deadlock

    instance = build_clockwise_ring_instance(4)
    travels = [instance.make_travel((i, 0), ((i + 2) % 4, 0), num_flits=4)
               for i in range(4)]

    def run_and_analyse():
        result = instance.run(travels, capacity=1)
        analysis = analyse_deadlock(result.final, instance.switching)
        return result, analysis

    result, analysis = benchmark(run_and_analyse)
    report("Deterministic run into deadlock (clockwise ring of 4)",
           f"deadlocked after {result.steps} steps; recovered cycle: "
           + " -> ".join(str(p) for p in (analysis.cycle or [])))
    assert result.deadlocked
    assert analysis.cycle
