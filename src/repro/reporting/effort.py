"""The verification-effort table (the analogue of the paper's Table I).

Table I of the paper reports, per proof-development component, the number of
source lines ("Lines"), theorems ("Thms"), functions ("Fns"), CPU minutes to
replay the proofs ("CPU") and human days of interaction ("Hmn").  An ACL2
development and a Python reproduction cannot be compared line-for-line, so
the analogue reported here keeps the table's *structure* and semantic
columns while measuring the Python artefacts:

* **Lines** -- source lines of the repro modules implementing the component;
* **Checks** (analogue of "Thms") -- number of elementary checks discharged
  by the automated obligation/theorem checkers for the component;
* **Fns** -- number of functions/methods defined in the implementing
  modules;
* **CPU (s)** -- wall-clock seconds to discharge the component's checks;
* **Paper** columns -- the values the paper reports, for side-by-side
  comparison (:data:`PAPER_TABLE_I`).

As in the paper, only the upper part of the table (the HERMES-specific
components) depends on the instantiation; the generic rows measure the
framework itself and are the same for every instance.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.reporting.tables import format_table

#: The paper's Table I, for comparison: component -> (Lines, Thms, Fns, CPU
#: minutes, Human days).  "None" marks the N/A entries.
PAPER_TABLE_I: Dict[str, Tuple[int, int, int, int, Optional[int]]] = {
    "Rxy": (1173, 97, 42, 16, 4),
    "Iid, (C-4)": (47, 4, 2, 1, 0),
    "Swh, (C-5)": (1434, 151, 25, 17, 6),
    "(C-1)xy": (483, 40, 7, 17, 2),
    "(C-2)xy": (435, 51, 0, 51, 2),
    "(C-3)xy": (1018, 81, 10, 28, 4),
    "Generic Defs": (3127, 234, 85, 2, None),
    "CorrThm": (2267, 65, 11, 6, None),
    "Dead/EvacThm": (3277, 285, 125, 6, None),
    "Overall": (13261, 1008, 307, 144, 20),
}

#: Which repro modules implement each component (used for the Lines/Fns
#: columns).
COMPONENT_MODULES: Dict[str, List[str]] = {
    "Rxy": ["repro.routing.xy", "repro.routing.dimension_order",
            "repro.hermes.ports"],
    "Iid, (C-4)": ["repro.hermes.injection"],
    "Swh, (C-5)": ["repro.switching.wormhole", "repro.core.measure"],
    "(C-1)xy": ["repro.hermes.dependency"],
    "(C-2)xy": ["repro.hermes.ports"],
    "(C-3)xy": ["repro.hermes.flows"],
    "Generic Defs": ["repro.core.configuration", "repro.core.constituents",
                     "repro.core.state", "repro.core.travel",
                     "repro.core.genoc", "repro.network.port",
                     "repro.network.topology", "repro.network.mesh"],
    "CorrThm": ["repro.core.theorems"],
    "Dead/EvacThm": ["repro.core.deadlock", "repro.core.dependency",
                     "repro.core.witness", "repro.core.obligations"],
}


@dataclass
class EffortRow:
    """One row of the effort table."""

    component: str
    lines: int
    checks: int
    functions: int
    cpu_seconds: float
    paper_lines: Optional[int] = None
    paper_thms: Optional[int] = None
    paper_fns: Optional[int] = None
    paper_cpu_minutes: Optional[int] = None
    paper_human_days: Optional[int] = None

    def as_cells(self) -> List[object]:
        return [
            self.component, self.lines, self.checks, self.functions,
            f"{self.cpu_seconds:.3f}",
            self.paper_lines if self.paper_lines is not None else "N/A",
            self.paper_thms if self.paper_thms is not None else "N/A",
            self.paper_fns if self.paper_fns is not None else "N/A",
            self.paper_cpu_minutes if self.paper_cpu_minutes is not None else "N/A",
            self.paper_human_days if self.paper_human_days is not None else "N/A",
        ]


@dataclass
class EffortTable:
    """The full effort table for one HERMES instance."""

    instance_name: str
    rows: List[EffortRow] = field(default_factory=list)
    #: What the (C-3)xy checker accepted, printed under the table.
    certificate: str = ""

    HEADERS = ["Component", "Lines", "Checks", "Fns", "CPU (s)",
               "Paper Lines", "Paper Thms", "Paper Fns", "Paper CPU (min)",
               "Paper Hmn (days)"]

    def overall(self) -> EffortRow:
        paper = PAPER_TABLE_I["Overall"]
        return EffortRow(
            component="Overall",
            lines=sum(row.lines for row in self.rows),
            checks=sum(row.checks for row in self.rows),
            functions=sum(row.functions for row in self.rows),
            cpu_seconds=sum(row.cpu_seconds for row in self.rows),
            paper_lines=paper[0], paper_thms=paper[1], paper_fns=paper[2],
            paper_cpu_minutes=paper[3], paper_human_days=paper[4])

    def formatted(self) -> str:
        rows = [row.as_cells() for row in self.rows]
        rows.append(self.overall().as_cells())
        text = format_table(self.HEADERS, rows,
                            title=f"Verification effort ({self.instance_name})")
        if self.certificate:
            text += f"\n(C-3)xy certificate: {self.certificate}"
        return text

    def row(self, component: str) -> EffortRow:
        for candidate in self.rows:
            if candidate.component == component:
                return candidate
        raise KeyError(component)


def _module_metrics(module_names: Sequence[str]) -> Tuple[int, int]:
    """Source lines and function count of the given modules."""
    import importlib

    lines = 0
    functions = 0
    for name in module_names:
        module = importlib.import_module(name)
        try:
            source = inspect.getsource(module)
        except (OSError, TypeError):  # pragma: no cover - compiled modules
            continue
        lines += len(source.splitlines())
        for _, obj in inspect.getmembers(module):
            if inspect.isfunction(obj) and obj.__module__ == name:
                functions += 1
            elif inspect.isclass(obj) and obj.__module__ == name:
                functions += len([m for _, m in inspect.getmembers(
                    obj, predicate=inspect.isfunction)
                    if m.__qualname__.startswith(obj.__name__)])
    return lines, functions


def build_effort_table(width: int, height: int,
                       buffer_capacity: int = 2,
                       workloads=None) -> EffortTable:
    """Discharge everything for a mesh and assemble the Table I analogue."""
    from repro.core.theorems import (
        check_correctness,
        check_deadlock_freedom,
        check_evacuation,
    )
    from repro.hermes.proofs import default_workloads, discharge_all

    report = discharge_all(width, height, workloads=workloads,
                           buffer_capacity=buffer_capacity)
    instance = report.instance
    if workloads is None:
        workloads = default_workloads(instance)

    # CorrThm / EvacThm: run the workloads and verify the runtime facets.
    corr_start = time.perf_counter()
    corr_checks = 0
    evac_checks = 0
    evac_seconds = 0.0
    for workload in workloads:
        original = instance.initial_configuration(workload)
        result = instance.engine().run(original.copy())
        corr = check_correctness(instance, original, result)
        corr_checks += corr.checks
        evac_start = time.perf_counter()
        evac = check_evacuation(instance, original, result)
        evac_seconds += time.perf_counter() - evac_start
        evac_checks += evac.checks
    corr_seconds = time.perf_counter() - corr_start - evac_seconds

    # Dead/EvacThm row: derive DeadThm from the obligations (already timed in
    # the report) and add the evacuation runtime checks.
    dead_start = time.perf_counter()
    dead = check_deadlock_freedom(instance)
    dead_seconds = time.perf_counter() - dead_start

    # Rxy row: route-computation checks (every source node to every
    # destination, route terminates and ends at the destination).
    rxy_start = time.perf_counter()
    rxy_checks = 0
    for source in instance.topology.local_in_ports():
        for destination in instance.routing.destinations():
            route = instance.routing.compute_route(source, destination)
            assert route[-1] == destination
            rxy_checks += 1
    rxy_seconds = time.perf_counter() - rxy_start

    component_data: Dict[str, Tuple[int, float]] = {
        "Rxy": (rxy_checks, rxy_seconds),
        "Iid, (C-4)": (report.results["C-4"].checks,
                       report.results["C-4"].elapsed_seconds),
        "Swh, (C-5)": (report.results["C-5"].checks,
                       report.results["C-5"].elapsed_seconds),
        "(C-1)xy": (report.results["C-1"].checks,
                    report.results["C-1"].elapsed_seconds),
        "(C-2)xy": (report.results["C-2"].checks,
                    report.results["C-2"].elapsed_seconds),
        "(C-3)xy": (report.results["C-3"].checks,
                    report.results["C-3"].elapsed_seconds),
        "Generic Defs": (0, 0.0),
        "CorrThm": (corr_checks, corr_seconds),
        "Dead/EvacThm": (dead.checks + evac_checks,
                         dead_seconds + evac_seconds),
    }

    c3 = report.results["C-3"].details
    table = EffortTable(
        instance_name=instance.name,
        certificate=f"{c3['certificate']}, checked on {c3['edges']} edges")
    for component, modules in COMPONENT_MODULES.items():
        lines, functions = _module_metrics(modules)
        checks, seconds = component_data[component]
        paper = PAPER_TABLE_I.get(component)
        table.rows.append(EffortRow(
            component=component, lines=lines, checks=checks,
            functions=functions, cpu_seconds=seconds,
            paper_lines=paper[0] if paper else None,
            paper_thms=paper[1] if paper else None,
            paper_fns=paper[2] if paper else None,
            paper_cpu_minutes=paper[3] if paper else None,
            paper_human_days=paper[4] if paper else None))
    return table
