"""The perf trajectory: benchmark runner and schema-versioned reports.

Speedups that are not written down decay into anecdotes.  This module turns
every performance-relevant path of the engine into a reproducible, *schema
versioned* JSON report -- ``BENCH_<date>.json`` -- so that each PR can be
compared against the committed trajectory of its predecessors:

* **solver microbenchmarks** -- fixed, deterministic CDCL workloads (one-
  shot acyclicity, a cyclic oracle query, incremental escape analysis, a
  random-3SAT instance) timed best-of-N on a cold construction cache;
* **portfolio runs** -- the scenario sweep (smoke or extended profile)
  executed at each requested job count through the *same*
  :func:`~repro.core.portfolio.run_portfolio` the CLI uses (cross-checked),
  recording wall time, verdict counts, solver deltas and cache counters;
* **reference deltas** -- an optional reference measurement set (e.g. the
  seed engine of the current PR, or the previous ``BENCH_*.json``) against
  which speedups are computed.

Entry points: ``repro bench --json`` (CLI) and ``benchmarks/run_bench.py``
(standalone, writes ``BENCH_<date>.json``).  :func:`validate_bench_report`
is the schema gate the CI ``bench-smoke`` job fails on.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Schema 2 (the flat-array CDCL core): portfolio runs must carry the
#: per-group ``session_stats`` solver counters (decisions, propagations,
#: conflicts, restarts, learned, solves, minimised; older schema-2
#: reports also carry clause-management counters the solver no longer
#: has).  Schema 1 reports remain readable (`--compare` accepts both);
#: new reports are always written at the current schema.
BENCH_SCHEMA = 2
BENCH_KIND = "repro-bench-trajectory"


# ---------------------------------------------------------------------------
# Solver microbenchmarks
# ---------------------------------------------------------------------------

def _setup_acyclic_mesh():
    from repro.hermes import build_exy_graph
    from repro.network.mesh import Mesh2D

    return build_exy_graph(Mesh2D(4, 4))


def _run_acyclic_mesh(graph) -> None:
    from repro.checking.encodings import is_acyclic_by_sat

    assert is_acyclic_by_sat(graph)


def _setup_cyclic_oracle():
    from repro.core.dependency import routing_dependency_graph
    from repro.network.mesh import Mesh2D
    from repro.routing.adaptive import ZigZagRouting

    return routing_dependency_graph(ZigZagRouting(Mesh2D(4, 4)))


def _run_cyclic_oracle(graph) -> None:
    from repro.checking.incremental import AcyclicityOracle

    assert not AcyclicityOracle(graph).is_acyclic()


def _setup_escape_ring():
    from repro.core.dependency import routing_dependency_graph
    from repro.ringnoc import build_clockwise_ring_instance

    instance = build_clockwise_ring_instance(8)
    return routing_dependency_graph(instance.routing)


def _run_escape_ring(graph) -> None:
    from repro.core.deadlock import DeadlockQuerySession

    session = DeadlockQuerySession(graph, name="bench-ring8")
    assert not session.is_deadlock_free()
    assert session.escape_edges()


def _setup_random_3sat():
    import random

    from repro.checking.cnf import CNF

    rng = random.Random(7)
    cnf = CNF()
    for _ in range(480):
        variables = rng.sample(range(1, 121), 3)
        cnf.add_clause([var if rng.random() < 0.5 else -var
                        for var in variables])
    return cnf


def _run_random_3sat(cnf) -> None:
    from repro.checking.sat import solve_cnf

    solve_cnf(cnf)


#: The fixed microbench suite: name -> (setup, run).  The setup (graph
#: enumeration, CNF assembly) happens *outside* the timed region -- these
#: are solver benchmarks (encode + solve on a prepared input); the
#: construction side is what the portfolio benchmarks cover.  Names are
#: part of the trajectory (reports are compared across PRs by name), so
#: extend rather than rename.
SOLVER_MICROBENCHMARKS: Dict[str, Tuple[Callable[[], object],
                                        Callable[[object], None]]] = {
    "acyclic-mesh4x4-oneshot": (_setup_acyclic_mesh, _run_acyclic_mesh),
    "cyclic-zigzag4x4-oracle": (_setup_cyclic_oracle, _run_cyclic_oracle),
    "escape-ring8-incremental": (_setup_escape_ring, _run_escape_ring),
    "random3sat-120v-480c": (_setup_random_3sat, _run_random_3sat),
}


def run_solver_microbench(repeat: int = 3) -> Dict[str, Dict[str, object]]:
    """Time every microbench workload, best of ``repeat`` cold runs.

    The construction cache is reset and the input rebuilt before every
    run, so the numbers measure the engine on a cold start, not the
    warmth a previous repetition left behind.

    One crashing workload does not lose the report: its entry degrades to
    ``{"status": "error", "error": ...}`` and the remaining benchmarks
    still run -- the same graceful-degradation contract as the portfolio
    driver's scenario verdicts.
    """
    from repro.core.cache import reset_instance_cache

    results: Dict[str, Dict[str, object]] = {}
    for name, (setup, run) in SOLVER_MICROBENCHMARKS.items():
        best = float("inf")
        try:
            for _ in range(max(1, repeat)):
                reset_instance_cache()
                prepared = setup()
                started = time.perf_counter()
                run(prepared)
                best = min(best, time.perf_counter() - started)
        except Exception as exc:
            results[name] = {"status": "error",
                             "error": f"{type(exc).__name__}: {exc}"}
            continue
        results[name] = {"wall_time_s": round(best, 6)}
    return results


# ---------------------------------------------------------------------------
# Portfolio benchmarks
# ---------------------------------------------------------------------------

def profile_matrix(profile: str):
    """The scenario matrix of a bench profile, as declarative terms.

    Bench profiles run through the same spec layer as ``repro batch
    --matrix``: a profile *is* a scenario matrix, expanded by
    :func:`repro.core.spec.expand_matrix` -- so the numbers the perf
    trajectory records are numbers for the exact matrices any sharded or
    distributed sweep would run.
    """
    from repro.core.portfolio import (
        extended_matrix,
        standard_matrix,
        vc_escape_matrix,
    )

    if profile == "tiny":
        # Fast enough for a unit test; exercises mesh + ring groups.
        return standard_matrix(mesh_sizes=(3,), ring_sizes=(4,))
    if profile == "smoke":
        return (standard_matrix(mesh_sizes=(3, 4), ring_sizes=(4,))
                + vc_escape_matrix(mesh_sizes=(3,), torus_sizes=(4,),
                                   vc_counts=(1, 2)))
    if profile == "extended":
        return extended_matrix(mesh_sizes=(8, 16), ring_sizes=(8,),
                               vc_mesh_sizes=(8,), vc_counts=(1, 2, 4))
    if profile == "extended-8":
        # The extended sweep capped at 8x8 -- the largest profile that
        # stays in CI-friendly territory on one core.
        return extended_matrix(mesh_sizes=(8,), ring_sizes=(8,),
                               vc_mesh_sizes=(8,), vc_counts=(1, 2, 4))
    raise ValueError(f"unknown bench profile {profile!r}; "
                     f"expected tiny, smoke, extended-8 or extended")


def _bench_scenarios(profile: str):
    from repro.core.portfolio import scenarios_from_specs
    from repro.core.spec import expand_matrix

    return scenarios_from_specs(expand_matrix(profile_matrix(profile)))


def run_portfolio_bench(profile: str = "smoke",
                        jobs_list: Sequence[int] = (1,),
                        trace_dir: Optional[str] = None,
                        store_dir: Optional[str] = None
                        ) -> Dict[str, object]:
    """Run the profile's portfolio once per requested job count.

    Every run is cross-checked, so the CDCL session runs and the bench
    keeps measuring the solver trajectory.
    Every run re-derives the scenario list (construction cost is part of
    what the engine amortises, so it is *included* in the measured wall
    time) and resets the construction cache, making the job counts
    comparable.  The first run's verdict projection
    (:meth:`~repro.core.portfolio.PortfolioReport.comparable_dict`) is
    asserted equal for every later run -- the bench doubles as the
    parallel-determinism gate.

    ``trace_dir`` additionally records a JSONL event trace
    (:mod:`repro.core.trace`) per **serial** lane into
    ``<trace_dir>/portfolio-<profile>-jobs1.jsonl``; parallel lanes are
    never traced (writers cannot cross the pool boundary), and traced
    serial wall times include the tracing overhead by design -- the
    trace is telemetry about the run it measures.

    ``store_dir`` attaches a persistent verdict store
    (:mod:`repro.core.store`) to every lane.  The first lane populates it
    and later lanes replay from it, so the recorded wall times measure
    the *warm-cache* path -- useful for benchmarking the store itself,
    wrong for solver trajectories (leave it unset for ``BENCH_*.json``
    measurements, which must measure solving).  Each run entry then
    carries the run's ``store`` counter block.
    """
    from repro.core.cache import reset_instance_cache
    from repro.core.portfolio import run_portfolio

    runs: List[Dict[str, object]] = []
    reference_projection: Optional[Dict[str, object]] = None
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
    for jobs in jobs_list:
        reset_instance_cache()
        scenarios = _bench_scenarios(profile)
        started = time.perf_counter()
        try:
            if trace_dir is not None and jobs == 1:
                from repro.core.trace import TraceWriter

                trace_path = os.path.join(
                    trace_dir, f"portfolio-{profile}-jobs1.jsonl")
                with TraceWriter(trace_path,
                                 label=f"bench {profile} jobs=1") as trace:
                    report = run_portfolio(scenarios, cross_check=True,
                                           jobs=jobs, trace=trace,
                                           store=store_dir)
            else:
                report = run_portfolio(scenarios, cross_check=True,
                                       jobs=jobs, store=store_dir)
        except Exception as exc:
            # One crashed lane degrades to a structured error entry; the
            # other job counts still produce their measurements.
            runs.append({"jobs": jobs, "status": "error",
                         "error": f"{type(exc).__name__}: {exc}"})
            continue
        wall = time.perf_counter() - started
        projection = report.comparable_dict()
        if reference_projection is None:
            reference_projection = projection
        elif projection != reference_projection:
            raise AssertionError(
                f"portfolio run with jobs={jobs} disagrees with the first "
                f"run -- parallel determinism is broken")
        payload = report.to_json_dict()
        entry: Dict[str, object] = {
            "jobs": report.jobs,
            "wall_time_s": round(wall, 6),
            "scenarios": len(report.verdicts),
            "deadlock_free": report.deadlock_free_count,
            "cache_hits": payload["summary"]["cache_hits"],
            "cache_misses": payload["summary"]["cache_misses"],
            "session_stats": payload["session_stats"],
            "per_scenario": [
                {"scenario": scenario["scenario"],
                 "wall_time_s": scenario["wall_time_s"],
                 "deadlock_free": scenario["deadlock_free"],
                 "solver": scenario["solver"]}
                for scenario in payload["scenarios"]],
        }
        if "store" in payload:
            entry["store"] = payload["store"]
        runs.append(entry)
    serial = next((run for run in runs
                   if run["jobs"] == 1 and "wall_time_s" in run), None)
    fastest_parallel = min(
        (run for run in runs
         if run["jobs"] != 1 and "wall_time_s" in run),
        key=lambda run: run["wall_time_s"], default=None)
    speedup = None
    if serial is not None and fastest_parallel is not None:
        speedup = round(
            serial["wall_time_s"] / max(fastest_parallel["wall_time_s"],
                                        1e-9), 3)
    return {"profile": profile, "runs": runs,
            "parallel_speedup": speedup}


# ---------------------------------------------------------------------------
# Report assembly, validation, IO
# ---------------------------------------------------------------------------

def run_benchmark(profile: str = "smoke",
                  jobs_list: Sequence[int] = (1,),
                  repeat: int = 3,
                  reference: Optional[Dict[str, object]] = None,
                  notes: Optional[str] = None,
                  trace_dir: Optional[str] = None,
                  store_dir: Optional[str] = None) -> Dict[str, object]:
    """Assemble one full bench report (microbench + portfolio trajectory).

    ``reference`` is an optional mapping with the same shape as the
    ``solver_microbench`` / ``portfolio`` sections of a previous report
    (e.g. the seed engine of the current PR); when present, speedups
    against it are recorded next to the fresh numbers.  ``trace_dir``
    records JSONL event traces of the serial portfolio lanes (see
    :func:`run_portfolio_bench`).
    """
    report: Dict[str, object] = {
        "schema": BENCH_SCHEMA,
        "kind": BENCH_KIND,
        "generated": time.strftime("%Y-%m-%d"),
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count() or 1,
        },
        "solver_microbench": run_solver_microbench(repeat=repeat),
        "portfolio": run_portfolio_bench(profile=profile,
                                         jobs_list=jobs_list,
                                         trace_dir=trace_dir,
                                         store_dir=store_dir),
    }
    if notes:
        report["notes"] = notes
    if reference:
        report["reference"] = reference
        speedups: Dict[str, float] = {}
        reference_micro = reference.get("solver_microbench", {})
        base_total = measured_total = 0.0
        for name, entry in report["solver_microbench"].items():
            base = reference_micro.get(name, {}).get("wall_time_s")
            if base and "wall_time_s" in entry:
                base_total += base
                measured_total += entry["wall_time_s"]
                speedups[name] = round(base / max(entry["wall_time_s"],
                                                  1e-9), 3)
        if measured_total:
            speedups["solver-suite-aggregate"] = round(
                base_total / measured_total, 3)
        # The reference is either a hand-made measurement file (flat
        # serial_wall_time_s) or a previous bench report (runs[] with a
        # jobs=1 entry).
        reference_portfolio = reference.get("portfolio", {})
        base_serial = reference_portfolio.get("serial_wall_time_s")
        if base_serial is None:
            base_serial = next(
                (run.get("wall_time_s")
                 for run in reference_portfolio.get("runs", [])
                 if run.get("jobs") == 1), None)
        timed_runs = [run for run in report["portfolio"]["runs"]
                      if "wall_time_s" in run]
        if base_serial and timed_runs:
            best = min(run["wall_time_s"] for run in timed_runs)
            speedups["portfolio-vs-reference"] = round(
                base_serial / max(best, 1e-9), 3)
        report["speedup_vs_reference"] = speedups
    return report


def validate_bench_report(report: Dict[str, object]) -> List[str]:
    """Schema gate: the list of violations (empty = valid).

    Checked by the CI ``bench-smoke`` job and by the schema-pin test, so
    reports that silently drop fields fail loudly instead of producing an
    uncomparable trajectory.
    """
    errors: List[str] = []

    def require(condition: bool, message: str) -> None:
        if not condition:
            errors.append(message)

    require(report.get("schema") == BENCH_SCHEMA,
            f"schema must be {BENCH_SCHEMA}, got {report.get('schema')!r}")
    require(report.get("kind") == BENCH_KIND,
            f"kind must be {BENCH_KIND!r}, got {report.get('kind')!r}")
    require(isinstance(report.get("generated"), str)
            and len(report.get("generated", "")) == 10,
            "generated must be a YYYY-MM-DD string")
    plat = report.get("platform")
    require(isinstance(plat, dict)
            and isinstance(plat.get("cpu_count"), int)
            and isinstance(plat.get("python"), str),
            "platform must record python and cpu_count")

    micro = report.get("solver_microbench")
    if not isinstance(micro, dict) or not micro:
        errors.append("solver_microbench must be a non-empty mapping")
    else:
        for name, entry in micro.items():
            if isinstance(entry, dict) and entry.get("status") == "error":
                require(isinstance(entry.get("error"), str),
                        f"errored microbench {name!r} must carry an "
                        f"error string")
                continue
            require(isinstance(entry, dict)
                    and isinstance(entry.get("wall_time_s"), (int, float))
                    and entry.get("wall_time_s") >= 0,
                    f"microbench {name!r} must record wall_time_s >= 0")

    portfolio = report.get("portfolio")
    if not isinstance(portfolio, dict):
        errors.append("portfolio section missing")
    else:
        runs = portfolio.get("runs")
        if not isinstance(runs, list) or not runs:
            errors.append("portfolio.runs must be a non-empty list")
        else:
            for run in runs:
                if isinstance(run, dict) and run.get("status") == "error":
                    require("jobs" in run
                            and isinstance(run.get("error"), str),
                            "errored portfolio run must carry jobs and an "
                            "error string")
                    continue
                for key in ("jobs", "wall_time_s", "scenarios",
                            "deadlock_free", "cache_hits", "cache_misses",
                            "session_stats", "per_scenario"):
                    require(key in run, f"portfolio run missing {key!r}")
                for entry in run.get("per_scenario", []):
                    for key in ("scenario", "wall_time_s", "deadlock_free",
                                "solver"):
                        require(key in entry,
                                f"per-scenario entry missing {key!r}")
    return errors


# ---------------------------------------------------------------------------
# Trajectory comparison (``repro bench --compare OLD.json NEW.json``)
# ---------------------------------------------------------------------------

def _portfolio_serial_wall(report: Dict[str, object]) -> Optional[float]:
    """The serial (jobs=1) portfolio wall time of a report, if recorded."""
    portfolio = report.get("portfolio", {})
    if not isinstance(portfolio, dict):
        return None
    flat = portfolio.get("serial_wall_time_s")
    if isinstance(flat, (int, float)):
        return float(flat)
    for run in portfolio.get("runs", []) or []:
        if run.get("jobs") == 1 and isinstance(run.get("wall_time_s"),
                                               (int, float)):
            return float(run["wall_time_s"])
    return None


def compare_bench_reports(old: Dict[str, object],
                          new: Dict[str, object],
                          threshold: float = 0.95):
    """Per-benchmark speedup of ``new`` over ``old``.

    Returns ``(rows, regressions)``: ``rows`` is a list of
    ``(name, old_s, new_s, speedup)`` tuples -- one per microbench name
    the two reports share, plus ``solver-suite-aggregate`` and (when both
    reports carry a serial run) ``portfolio-serial`` -- and
    ``regressions`` names every row whose speedup falls below
    ``threshold`` (0.95 = "new may be at most 5% slower").  Old reports
    of any schema are accepted; only the sections both reports share are
    compared, and the ``portfolio-serial`` row only when both reports ran
    the **same profile** -- wall times of different scenario matrices are
    not comparable and would fake a speedup (or regression).

    A benchmark that **errored** on either side (schema-4 ``status:
    "error"`` entries, or any entry without a ``wall_time_s``) is neither
    silently dropped nor mis-paired: it contributes a warning row whose
    ``speedup`` is ``None`` (its wall times are ``None`` where
    unavailable), is excluded from the aggregate and can never count as a
    regression.
    """
    rows: List[Tuple[str, object, object, object]] = []
    old_micro = old.get("solver_microbench", {}) or {}
    new_micro = new.get("solver_microbench", {}) or {}
    base_total = measured_total = 0.0
    for name in old_micro:
        if name not in new_micro:
            continue
        old_entry = old_micro[name] or {}
        new_entry = new_micro[name] or {}
        old_wall = old_entry.get("wall_time_s")
        new_wall = new_entry.get("wall_time_s")
        if (old_entry.get("status") == "error"
                or new_entry.get("status") == "error"
                or not old_wall or new_wall is None):
            rows.append((name, old_wall, new_wall, None))
            continue
        base_total += old_wall
        measured_total += new_wall
        rows.append((name, old_wall, new_wall,
                     round(old_wall / max(new_wall, 1e-9), 3)))
    if measured_total:
        rows.append(("solver-suite-aggregate", base_total, measured_total,
                     round(base_total / measured_total, 3)))
    old_serial = _portfolio_serial_wall(old)
    new_serial = _portfolio_serial_wall(new)
    old_profile = (old.get("portfolio") or {}).get("profile")
    new_profile = (new.get("portfolio") or {}).get("profile")
    if old_profile is not None and old_profile != new_profile:
        old_serial = None
    if old_serial and new_serial is not None:
        rows.append(("portfolio-serial", old_serial, new_serial,
                     round(old_serial / max(new_serial, 1e-9), 3)))
    regressions = [name for name, _, _, speedup in rows
                   if speedup is not None and speedup < threshold]
    return rows, regressions


def format_bench_comparison(rows, regressions,
                            threshold: float = 0.95) -> str:
    """Human-readable speedup table for :func:`compare_bench_reports`."""
    from repro.reporting.tables import format_table

    def _ms(value) -> str:
        return f"{value * 1000:.1f}" if isinstance(value,
                                                   (int, float)) else "-"

    body = []
    skipped = 0
    for name, old_wall, new_wall, speedup in rows:
        if speedup is None:
            skipped += 1
            body.append([name, _ms(old_wall), _ms(new_wall),
                         "skipped (errored)"])
        else:
            body.append([name, _ms(old_wall), _ms(new_wall),
                         f"{speedup:.2f}x"
                         + ("  REGRESSION" if name in regressions else "")])
    table = format_table(["benchmark", "old ms", "new ms", "speedup"], body)
    if skipped:
        table += (f"\nwarning: {skipped} benchmark(s) skipped -- errored "
                  f"or unmeasured on one side")
    if regressions:
        table += (f"\n{len(regressions)} regression(s) beyond the "
                  f"{threshold:.2f}x threshold: {', '.join(regressions)}")
    return table


def bench_report_path(directory: str = ".",
                      date: Optional[str] = None) -> str:
    """The canonical ``BENCH_<date>.json`` path for a report."""
    return os.path.join(directory,
                        f"BENCH_{date or time.strftime('%Y-%m-%d')}.json")


def write_bench_report(report: Dict[str, object], path: str) -> str:
    """Validate and write a report (raises on schema violations)."""
    errors = validate_bench_report(report)
    if errors:
        raise ValueError("bench report violates the schema: "
                         + "; ".join(errors))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    return path


def format_bench_summary(report: Dict[str, object]) -> str:
    """A short human-readable digest of a bench report."""
    lines = [f"bench {report['generated']} "
             f"(python {report['platform']['python']}, "
             f"{report['platform']['cpu_count']} cores)"]
    for name, entry in report["solver_microbench"].items():
        if entry.get("status") == "error":
            lines.append(f"  solver {name}: ERROR ({entry['error']})")
            continue
        line = f"  solver {name}: {entry['wall_time_s'] * 1000:.1f} ms"
        speedup = report.get("speedup_vs_reference", {}).get(name)
        if speedup:
            line += f" ({speedup:.2f}x vs reference)"
        lines.append(line)
    portfolio = report["portfolio"]
    for run in portfolio["runs"]:
        if run.get("status") == "error":
            lines.append(f"  portfolio[{portfolio['profile']}] "
                         f"jobs={run['jobs']}: ERROR ({run['error']})")
            continue
        lines.append(f"  portfolio[{portfolio['profile']}] "
                     f"jobs={run['jobs']}: {run['wall_time_s']:.3f}s "
                     f"({run['scenarios']} scenarios, "
                     f"{run['cache_hits']} cache hits)")
    if portfolio.get("parallel_speedup"):
        lines.append(f"  parallel speedup: "
                     f"{portfolio['parallel_speedup']:.2f}x")
    overall = report.get("speedup_vs_reference", {}).get(
        "portfolio-vs-reference")
    if overall:
        lines.append(f"  portfolio speedup vs reference: {overall:.2f}x")
    return "\n".join(lines)
