"""Fig. 1: the HERMES 2D-mesh NoC and its executable specification.

Fig. 1 of the paper shows the HERMES architecture (2D mesh, switch with five
bidirectional ports, 2 one-flit buffers per port).  The paper's model is
executable; this benchmark exercises exactly that executability: GeNoC2D runs
arbitrary initial message lists on meshes of several sizes and buffer depths,
and the evacuation time (switching steps) is reported.

Shape expectations:
* every workload evacuates (XY routing is deadlock-free);
* evacuation time grows with mesh size and message count;
* deeper buffers never make evacuation slower (and usually make it faster
  under contention).
"""

import pytest

from benchmarks.conftest import report
from repro.hermes.instantiation import build_hermes_instance
from repro.reporting.tables import format_table
from repro.simulation.simulator import Simulator
from repro.simulation.workloads import (
    bit_complement_traffic,
    transpose_traffic,
    uniform_random_traffic,
)


@pytest.mark.parametrize("size", [2, 4, 6, 8])
def test_bench_mesh_construction(benchmark, size):
    """Building the parametric topology + instantiation (Fig. 1a)."""
    instance = benchmark(build_hermes_instance, size, size)
    info = instance.describe()
    report(f"HERMES {size}x{size} structure", str(info))
    assert info["nodes"] == size * size
    assert info["ports"] == instance.mesh.expected_port_count()


@pytest.mark.parametrize("size,messages", [(2, 8), (4, 32), (6, 72), (8, 128)])
def test_bench_random_traffic_simulation(benchmark, size, messages):
    """GeNoC2D on uniform random traffic across mesh sizes."""
    instance = build_hermes_instance(size, size, buffer_capacity=2)
    workload = uniform_random_traffic(instance, num_messages=messages,
                                      num_flits=4, seed=2010)
    simulator = Simulator(instance, verify=False)

    result = benchmark(simulator.run, workload)
    metrics = result.metrics
    report(f"HERMES {size}x{size}, {messages} random messages",
           format_table(["metric", "value"],
                        list(metrics.as_dict().items())))
    assert metrics.evacuated
    assert metrics.steps >= 1


def test_bench_evacuation_steps_vs_buffer_depth(benchmark):
    """Fig. 1b parameter: number of 1-flit buffers per port."""
    rows = []

    def sweep():
        local_rows = []
        for capacity in (1, 2, 3, 4):
            instance = build_hermes_instance(4, 4, buffer_capacity=capacity)
            workload = bit_complement_traffic(instance, num_flits=4)
            result = Simulator(instance, verify=False).run(workload)
            local_rows.append([capacity, result.metrics.steps,
                               result.metrics.peak_flits_in_network,
                               result.metrics.evacuated])
        return local_rows

    rows = benchmark.pedantic(sweep, rounds=2, iterations=1)
    report("Evacuation vs buffer depth (4x4, bit-complement, 4-flit packets)",
           format_table(["buffers/port", "steps", "peak flits", "evacuated"],
                        rows))
    steps = [row[1] for row in rows]
    assert all(row[3] for row in rows)          # everything evacuates
    assert steps[-1] <= steps[0]                # deeper buffers never hurt


def test_bench_evacuation_steps_vs_message_count(benchmark):
    """Evacuation time as the initial message list grows (arbitrary size)."""

    def sweep():
        instance = build_hermes_instance(4, 4, buffer_capacity=2)
        local_rows = []
        for count in (8, 16, 32, 64, 128):
            workload = uniform_random_traffic(instance, num_messages=count,
                                              num_flits=3, seed=7)
            result = Simulator(instance, verify=False).run(workload)
            local_rows.append([count, result.metrics.steps,
                               result.metrics.evacuated])
        return local_rows

    rows = benchmark.pedantic(sweep, rounds=2, iterations=1)
    report("Evacuation vs message count (4x4 mesh)",
           format_table(["messages", "steps", "evacuated"], rows))
    assert all(row[2] for row in rows)
    assert rows[-1][1] >= rows[0][1]  # more messages take at least as long


def test_bench_transpose_traffic_scaling(benchmark):
    """A fixed pattern (transpose) across mesh sizes."""

    def sweep():
        local_rows = []
        for size in (2, 3, 4, 5, 6):
            instance = build_hermes_instance(size, size, buffer_capacity=2)
            workload = transpose_traffic(instance, num_flits=4)
            result = Simulator(instance, verify=False).run(workload)
            local_rows.append([f"{size}x{size}", len(workload),
                               result.metrics.steps,
                               result.metrics.evacuated])
        return local_rows

    rows = benchmark.pedantic(sweep, rounds=2, iterations=1)
    report("Transpose traffic across mesh sizes",
           format_table(["mesh", "messages", "steps", "evacuated"], rows))
    assert all(row[3] for row in rows)
    assert rows[-1][2] > rows[0][2]
