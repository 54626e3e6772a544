"""The simulator: run workloads on a GeNoC instance and collect metrics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.genoc import GeNoCResult
from repro.core.instance import NoCInstance
from repro.core.theorems import check_correctness, check_evacuation
from repro.simulation.metrics import RunMetrics, compute_metrics
from repro.simulation.workloads import WorkloadSpec

if TYPE_CHECKING:
    from repro.simulation.trace import Trace


@dataclass
class SimulationResult:
    """Result of simulating one workload."""

    workload: WorkloadSpec
    genoc_result: GeNoCResult
    metrics: RunMetrics
    trace: Optional[Trace] = None
    correctness_ok: Optional[bool] = None
    evacuation_ok: Optional[bool] = None

    def summary(self) -> str:
        status = "deadlock" if self.genoc_result.deadlocked else "evacuated"
        return (f"{self.workload.name}: {self.metrics.messages} messages, "
                f"{self.metrics.steps} steps, {status}")


class Simulator:
    """Runs workloads on a :class:`NoCInstance`."""

    def __init__(self, instance: NoCInstance,
                 capacity: Optional[int] = None,
                 max_steps: Optional[int] = None,
                 record_trace: bool = False,
                 verify: bool = True) -> None:
        self.instance = instance
        self.capacity = capacity
        self.max_steps = max_steps
        self.record_trace = record_trace
        self.verify = verify

    def run(self, workload: WorkloadSpec) -> SimulationResult:
        """Simulate one workload to completion (evacuation or deadlock)."""
        original = self.instance.initial_configuration(
            list(workload.travels), capacity=self.capacity)
        engine = self.instance.engine(max_steps=self.max_steps)
        recorder = None
        if self.record_trace:
            from repro.simulation.trace import TraceRecorder

            recorder = TraceRecorder()
        result = engine.run(original, on_step=recorder if recorder else None)
        metrics = compute_metrics(original, result)
        simulation = SimulationResult(
            workload=workload, genoc_result=result, metrics=metrics,
            trace=recorder.trace if recorder else None)
        if self.verify:
            simulation.correctness_ok = check_correctness(
                self.instance, original, result).holds
            if result.evacuated:
                simulation.evacuation_ok = check_evacuation(
                    self.instance, original, result).holds
            else:
                simulation.evacuation_ok = False
        return simulation

    def run_suite(self, workloads: Sequence[WorkloadSpec]
                  ) -> List[SimulationResult]:
        return [self.run(workload) for workload in workloads]

    def sweep(self, workloads: Sequence[WorkloadSpec]
              ) -> Dict[str, Dict[str, object]]:
        """Run a suite and return a name -> metrics-dict mapping."""
        table: Dict[str, Dict[str, object]] = {}
        for workload in workloads:
            result = self.run(workload)
            table[workload.name] = result.metrics.as_dict()
        return table
