"""Discharging the proof obligations for the HERMES instantiation.

The paper's Section VI discharges (C-1)xy, (C-2)xy, (C-3)xy, (C-4) and
(C-5)wh in ACL2.  This module provides the automated counterparts:

* :func:`discharge_c1_xy`, :func:`discharge_c2_xy`, :func:`discharge_c3_xy`
  -- exhaustive checks on a bounded mesh (plus, for C-3, the parametric
  rank-certificate case analysis of :mod:`repro.hermes.flows`);
* :func:`discharge_c4_iid`, :func:`discharge_c5_wh` -- extensional checks
  over a family of workloads;
* :func:`discharge_all` -- the full "user input, part II" bundle, returning
  a :class:`HermesProofReport` that the Table I benchmark converts into the
  verification-effort table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.configuration import Configuration
from repro.core.obligations import (
    ObligationResult,
    check_c1,
    check_c2,
    check_c3,
    check_c4,
    check_c5,
)
from repro.core.travel import Travel
from repro.hermes.flows import (
    check_rank_case_analysis,
    check_rank_certificate_on_mesh,
    parametric_c3_holds,
)
from repro.hermes.instantiation import HermesInstance, build_hermes_instance


def discharge_c1_xy(instance: HermesInstance) -> ObligationResult:
    """(C-1)xy: every XY hop for a reachable destination is an ``Exy_dep`` edge."""
    assert instance.dependency_spec is not None
    return check_c1(instance.routing, instance.dependency_spec)


def discharge_c2_xy(instance: HermesInstance) -> ObligationResult:
    """(C-2)xy: every ``Exy_dep`` edge is witnessed by ``find_dest``."""
    assert instance.dependency_spec is not None
    return check_c2(instance.routing, instance.dependency_spec,
                    instance.witness_destination)


def discharge_c3_xy(instance: HermesInstance,
                    include_parametric: bool = True) -> ObligationResult:
    """(C-3)xy: no cycle in ``Exy_dep``.

    The bounded check runs the certified cycle search on the concrete
    mesh; when ``include_parametric`` is set, the rank certificate is also
    checked edge-by-edge on the mesh and the size-independent case analysis
    is evaluated, mirroring the paper's arbitrary-size proof.
    """
    assert instance.dependency_spec is not None
    start = time.perf_counter()
    bounded = check_c3(instance.dependency_spec)
    result = ObligationResult(
        name="C-3", holds=bounded.holds, checks=bounded.checks,
        counterexamples=list(bounded.counterexamples),
        details=dict(bounded.details))
    if include_parametric:
        violations = check_rank_certificate_on_mesh(instance.mesh)
        cases = check_rank_case_analysis()
        result.checks += (instance.dependency_spec.to_graph().edge_count
                          + len(cases))
        result.details["rank_certificate_violations"] = len(violations)
        result.details["parametric_cases"] = len(cases)
        result.details["parametric_holds"] = parametric_c3_holds(cases)
        if violations:
            result.holds = False
            result.counterexamples.append(
                f"rank certificate violated on {len(violations)} edges")
        if not parametric_c3_holds(cases):
            result.holds = False
            result.counterexamples.append(
                "parametric rank case analysis failed")
    result.elapsed_seconds = time.perf_counter() - start
    return result


def discharge_c4_iid(instance: HermesInstance,
                     workloads: Sequence[Sequence[Travel]]) -> ObligationResult:
    """(C-4): ``Iid(σ) = σ`` on the given workloads' initial configurations."""
    configurations = [
        instance.routing.route_configuration(
            instance.initial_configuration(workload))
        for workload in workloads]
    return check_c4(instance.injection, configurations)


def discharge_c5_wh(instance: HermesInstance,
                    workloads: Sequence[Sequence[Travel]],
                    strict: bool = True) -> ObligationResult:
    """(C-5)wh: the measure decreases on every non-deadlocked wormhole step."""
    configurations = [
        instance.routing.route_configuration(
            instance.initial_configuration(workload))
        for workload in workloads]
    return check_c5(instance.switching, instance.measure, configurations,
                    strict=strict)


@dataclass
class HermesProofReport:
    """All obligations discharged for one HERMES instance."""

    instance: HermesInstance
    results: Dict[str, ObligationResult] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    @property
    def all_hold(self) -> bool:
        return all(result.holds for result in self.results.values())

    @property
    def total_checks(self) -> int:
        return sum(result.checks for result in self.results.values())

    def summary_lines(self) -> List[str]:
        lines = [f"Proof obligations for {self.instance.name}"]
        for name, result in sorted(self.results.items()):
            status = "holds" if result.holds else "VIOLATED"
            lines.append(f"  {name:<5} {status:<9} {result.checks:>7} checks"
                         f"  {result.elapsed_seconds:8.3f}s")
        lines.append(f"  total: {self.total_checks} checks in "
                     f"{self.elapsed_seconds:.3f}s -> "
                     f"{'all hold' if self.all_hold else 'VIOLATIONS FOUND'}")
        return lines


def discharge_all(width: int, height: int,
                  workloads: Optional[Sequence[Sequence[Travel]]] = None,
                  buffer_capacity: int = 2) -> HermesProofReport:
    """Discharge (C-1) ... (C-5) for a ``width x height`` HERMES mesh.

    When no workloads are supplied, a small default family (one message per
    node to the opposite corner, plus a transpose-like pattern) is used for
    the extensional obligations (C-4) and (C-5).
    """
    start = time.perf_counter()
    instance = build_hermes_instance(width, height,
                                     buffer_capacity=buffer_capacity)
    if workloads is None:
        workloads = default_workloads(instance)
    report = HermesProofReport(instance=instance)
    report.results["C-1"] = discharge_c1_xy(instance)
    report.results["C-2"] = discharge_c2_xy(instance)
    report.results["C-3"] = discharge_c3_xy(instance)
    report.results["C-4"] = discharge_c4_iid(instance, workloads)
    report.results["C-5"] = discharge_c5_wh(instance, workloads)
    report.elapsed_seconds = time.perf_counter() - start
    return report


def default_workloads(instance: HermesInstance,
                      num_flits: int = 3) -> List[List[Travel]]:
    """A small deterministic workload family used for (C-4)/(C-5).

    * every node sends one message to the diagonally opposite node;
    * every node sends one message to its transposed coordinate (when it
      exists).
    """
    mesh = instance.mesh
    opposite: List[Travel] = []
    transpose: List[Travel] = []
    for x in range(mesh.width):
        for y in range(mesh.height):
            target = (mesh.width - 1 - x, mesh.height - 1 - y)
            if target != (x, y):
                opposite.append(instance.make_travel((x, y), target,
                                                     num_flits=num_flits))
            if mesh.in_bounds(y, x) and (y, x) != (x, y):
                transpose.append(instance.make_travel((x, y), (y, x),
                                                      num_flits=num_flits))
    workloads = [workload for workload in (opposite, transpose) if workload]
    return workloads
