"""Theorem 2 validation: evacuation (``GeNoC(σ).A = σ.T``) and obligation (C-5).

The paper proves that, given (C-1)-(C-5), every injected message eventually
leaves the network, using the measure ``μxy`` (the sum of the remaining route
lengths).  This benchmark

* runs GeNoC on the standard workload suite across mesh sizes and confirms
  complete evacuation with the arrived set equal to the sent set,
* measures the cost of discharging (C-5) (the measure decreases on every
  non-deadlocked step) for both the refined flit-hop measure (strict
  decrease) and the paper's route-length measure (non-increase in the
  flit-accurate model),
* compares the evacuation behaviour of the three switching policies
  (wormhole / virtual cut-through / store-and-forward) -- the paper notes
  (C-5) is proven "nearly generically".
"""

import pytest

from benchmarks.conftest import report
from repro.core.measure import flit_hop_measure, route_length_measure
from repro.core.obligations import check_c5
from repro.core.theorems import check_evacuation
from repro.hermes.instantiation import build_hermes_instance
from repro.reporting.tables import format_table
from repro.simulation.simulator import Simulator
from repro.simulation.workloads import standard_suite
from repro.switching.store_and_forward import StoreAndForwardSwitching
from repro.switching.virtual_cut_through import VirtualCutThroughSwitching
from repro.switching.wormhole import WormholeSwitching


@pytest.mark.parametrize("size", [3, 4, 6])
def test_bench_evacuation_of_standard_suite(benchmark, size):
    instance = build_hermes_instance(size, size, buffer_capacity=2)
    suite = standard_suite(instance, num_flits=3, seed=0)
    simulator = Simulator(instance, verify=False)

    def run_all():
        return [simulator.run(workload) for workload in suite]

    results = benchmark.pedantic(run_all, rounds=2, iterations=1)
    rows = [[r.workload.name, r.metrics.messages, r.metrics.steps,
             r.metrics.evacuated] for r in results]
    report(f"Evacuation of the standard suite, {size}x{size}",
           format_table(["workload", "messages", "steps", "evacuated"], rows))
    assert all(r.metrics.evacuated for r in results)


@pytest.mark.parametrize("size", [3, 4])
def test_bench_evacuation_theorem_check(benchmark, size):
    """The runtime EvacThm check itself (A = T, empty state, measure)."""
    instance = build_hermes_instance(size, size, buffer_capacity=2)
    travels = list(standard_suite(instance, num_flits=4, seed=1)[0].travels)
    original = instance.initial_configuration(travels)
    result = instance.engine().run(original.copy())

    theorem = benchmark(check_evacuation, instance, original, result)
    assert theorem.holds


@pytest.mark.parametrize("measure,strict,expected", [
    (flit_hop_measure, True, True),
    (route_length_measure, False, True),
    (route_length_measure, True, False),
])
def test_bench_c5_discharge(benchmark, hermes_3x3, measure, strict, expected):
    """(C-5) for the refined and the paper measure."""
    instance = hermes_3x3
    workloads = standard_suite(instance, num_flits=3, seed=2)[:2]
    configurations = [
        instance.routing.route_configuration(
            instance.initial_configuration(list(spec.travels)))
        for spec in workloads]

    result = benchmark.pedantic(
        check_c5, args=(instance.switching, measure, configurations),
        kwargs={"strict": strict}, rounds=2, iterations=1)
    assert result.holds == expected


def test_bench_evacuation_across_switching_policies(benchmark):
    """Ablation: (C-5)/evacuation holds for every shipped switching policy."""

    def sweep():
        rows = []
        policies = [("wormhole", WormholeSwitching(), 2),
                    ("virtual cut-through", VirtualCutThroughSwitching(), 3),
                    ("store-and-forward", StoreAndForwardSwitching(), 4)]
        for name, policy, capacity in policies:
            instance = build_hermes_instance(4, 4, buffer_capacity=capacity,
                                             switching=policy)
            workload = standard_suite(instance, num_flits=3, seed=3)[0]
            result = Simulator(instance, verify=False).run(workload)
            rows.append([name, result.metrics.steps,
                         result.metrics.evacuated])
        return rows

    rows = benchmark.pedantic(sweep, rounds=2, iterations=1)
    report("Evacuation across switching policies (4x4, transpose)",
           format_table(["policy", "steps", "evacuated"], rows))
    assert all(row[2] for row in rows)


def test_bench_measure_trajectory(benchmark, hermes_4x4):
    """The measure decreases monotonically to zero (the Theorem 2 argument)."""
    instance = hermes_4x4
    travels = list(standard_suite(instance, num_flits=4, seed=5)[0].travels)

    def run():
        return instance.run(travels)

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert result.evacuated
    measures = result.measures
    assert all(later < earlier for earlier, later in zip(measures,
                                                         measures[1:]))
    assert measures[-1] == 0
    report("Measure trajectory (4x4, transpose, 4-flit packets)",
           f"initial μ = {measures[0]}, steps = {result.steps}, "
           f"final μ = {measures[-1]}")
