"""The end-to-end verification pipeline (paper Fig. 2).

Fig. 2 of the paper summarises the methodology: the user supplies the
constituents ``I``, ``R``, ``S`` (and the dependency graph, witness function
and measure), discharges the proof obligations, and obtains the three global
theorems plus an executable specification.  :func:`verify_instance` drives
exactly that flow for a :class:`~repro.core.instance.NoCInstance` and returns
a :class:`VerificationReport` that the examples, the reporting layer and the
Fig. 2 benchmark consume.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.configuration import Configuration
from repro.core.genoc import GeNoCResult
from repro.core.instance import NoCInstance
from repro.core.obligations import (
    ObligationResult,
    check_c1,
    check_c2,
    check_c3,
    check_c4,
    check_c5,
)
from repro.core.theorems import (
    TheoremResult,
    check_correctness,
    check_deadlock_freedom,
    check_evacuation,
)
from repro.core.travel import Travel


@dataclass
class VerificationReport:
    """Everything :func:`verify_instance` establishes about an instance."""

    instance_name: str
    obligations: Dict[str, ObligationResult] = field(default_factory=dict)
    theorems: Dict[str, TheoremResult] = field(default_factory=dict)
    runs: List[GeNoCResult] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def all_obligations_hold(self) -> bool:
        return all(result.holds for result in self.obligations.values())

    @property
    def all_theorems_hold(self) -> bool:
        return all(result.holds for result in self.theorems.values())

    @property
    def verified(self) -> bool:
        return self.all_obligations_hold and self.all_theorems_hold

    def summary_lines(self) -> List[str]:
        lines = [f"Verification report for {self.instance_name}"]
        lines.append("  Proof obligations:")
        for name, result in self.obligations.items():
            status = "holds" if result.holds else "VIOLATED"
            lines.append(f"    {name:<6} {status:<9} "
                         f"({result.checks} checks, "
                         f"{result.elapsed_seconds:.3f}s)")
        lines.append("  Theorems:")
        for name, result in self.theorems.items():
            status = "holds" if result.holds else "VIOLATED"
            lines.append(f"    {name:<10} {status:<9} "
                         f"({result.checks} checks)")
        if self.runs:
            evacuated = sum(1 for run in self.runs if run.evacuated)
            lines.append(f"  Simulated workloads: {len(self.runs)} "
                         f"({evacuated} fully evacuated)")
        lines.append(f"  Total time: {self.elapsed_seconds:.3f}s")
        lines.append(f"  VERDICT: "
                     f"{'verified' if self.verified else 'NOT verified'}")
        return lines

    def summary(self) -> str:
        return "\n".join(self.summary_lines())


def discharge_obligations(instance: NoCInstance,
                          workloads: Sequence[Sequence[Travel]] = (),
                          ) -> Dict[str, ObligationResult]:
    """Discharge (C-1) ... (C-5) for an instance.

    ``workloads`` (lists of travels) provide the configurations over which
    the extensional obligations (C-4) and (C-5) are checked; if none are
    supplied those two obligations are reported as holding vacuously with
    zero checks.
    """
    results: Dict[str, ObligationResult] = {}
    if instance.dependency_spec is not None:
        results["C-1"] = check_c1(instance.routing, instance.dependency_spec)
        results["C-2"] = check_c2(instance.routing, instance.dependency_spec,
                                  instance.witness_destination)
        results["C-3"] = check_c3(instance.dependency_spec)
    configurations: List[Configuration] = []
    for workload in workloads:
        config = instance.initial_configuration(workload)
        configurations.append(
            instance.routing.route_configuration(config))
    results["C-4"] = check_c4(instance.injection, configurations)
    results["C-5"] = check_c5(instance.switching, instance.measure,
                              configurations)
    return results


def verify_instance(instance: NoCInstance,
                    workloads: Sequence[Sequence[Travel]] = (),
                    run_workloads: bool = True) -> VerificationReport:
    """Run the full Fig. 2 pipeline on an instance.

    1. discharge the proof obligations;
    2. conclude DeadThm from (C-1)-(C-3);
    3. run GeNoC on every workload and check CorrThm and EvacThm on the runs.
    """
    start = time.perf_counter()
    report = VerificationReport(instance_name=instance.name)
    report.obligations = discharge_obligations(instance, workloads)

    if instance.dependency_spec is not None:
        report.theorems["DeadThm"] = check_deadlock_freedom(instance)

    if run_workloads and workloads:
        correctness_failures: List[str] = []
        evacuation_failures: List[str] = []
        correctness_checks = 0
        evacuation_checks = 0
        engine = instance.engine()
        for workload in workloads:
            original = instance.initial_configuration(workload)
            result = engine.run(original.copy())
            report.runs.append(result)
            corr = check_correctness(instance, original, result)
            evac = check_evacuation(instance, original, result)
            correctness_failures.extend(corr.counterexamples)
            evacuation_failures.extend(evac.counterexamples)
            correctness_checks += corr.checks
            evacuation_checks += evac.checks
        report.theorems["CorrThm"] = TheoremResult(
            name="CorrThm", holds=not correctness_failures,
            checks=correctness_checks, counterexamples=correctness_failures)
        report.theorems["EvacThm"] = TheoremResult(
            name="EvacThm", holds=not evacuation_failures,
            checks=evacuation_checks, counterexamples=evacuation_failures)

    report.elapsed_seconds = time.perf_counter() - start
    return report
