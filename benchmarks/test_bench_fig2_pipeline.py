"""Fig. 2: the specification-method overview.

Fig. 2 summarises the methodology: the user supplies the constituents
(I, R, S), discharges the proof obligations, and obtains the three global
theorems (CorrThm, DeadThm, EvacThm) plus an executable specification.  This
benchmark runs that full pipeline -- obligations, theorem derivation and
workload runs with runtime verification -- for the HERMES instantiation and
for the second (ring) instantiation, demonstrating the genericity that is the
point of the figure.
"""

import pytest

from benchmarks.conftest import report
from repro.core.pipeline import verify_instance
from repro.hermes.instantiation import build_hermes_instance
from repro.ringnoc.instantiation import build_chain_ring_instance
from repro.simulation.workloads import standard_suite


@pytest.mark.parametrize("size", [3, 4])
def test_bench_full_pipeline_hermes(benchmark, size):
    instance = build_hermes_instance(size, size, buffer_capacity=2)
    workloads = [list(spec.travels)
                 for spec in standard_suite(instance, num_flits=3, seed=0)[:3]]

    result = benchmark.pedantic(verify_instance, args=(instance, workloads),
                                rounds=3, iterations=1)
    report(f"Fig. 2 pipeline, HERMES {size}x{size}", result.summary())
    assert result.verified
    assert set(result.theorems) == {"DeadThm", "CorrThm", "EvacThm"}
    assert all(run.evacuated for run in result.runs)


def test_bench_full_pipeline_ring(benchmark):
    """The same pipeline on a different instantiation (genericity)."""
    instance = build_chain_ring_instance(6, buffer_capacity=2)
    workloads = [
        [instance.make_travel((0, 0), (5, 0), num_flits=3),
         instance.make_travel((5, 0), (0, 0), num_flits=3),
         instance.make_travel((2, 0), (4, 0), num_flits=2)],
        [instance.make_travel((index, 0), (5 - index, 0), num_flits=2)
         for index in range(5) if index != 5 - index],
    ]

    result = benchmark.pedantic(verify_instance, args=(instance, workloads),
                                rounds=3, iterations=1)
    report("Fig. 2 pipeline, chain-routed ring of 6", result.summary())
    assert result.verified


def test_bench_obligations_only_vs_full_pipeline(benchmark, hermes_4x4):
    """How much of the pipeline cost is obligation discharge vs simulation."""
    from repro.core.pipeline import discharge_obligations

    workloads = [list(spec.travels)
                 for spec in standard_suite(hermes_4x4, num_flits=3)[:2]]
    results = benchmark(discharge_obligations, hermes_4x4, workloads)
    assert all(result.holds for result in results.values())
