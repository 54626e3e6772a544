"""Batch verification portfolios: many scenarios, one graph search each.

The paper verifies one instantiation (HERMES / XY / wormhole).  A
production verification flow instead sweeps a *portfolio* of
topology x routing x switching scenarios -- is each candidate design
deadlock-free, and if not, which escape edges would fix it?  This module is
the batch driver for that sweep:

* scenarios are described declaratively (:class:`~repro.core.spec.ScenarioSpec`
  via :func:`~repro.core.spec.expand_matrix`) and resolved lazily in the
  worker that runs them, through the per-process construction cache;
* scenarios are grouped by topology, and groups are the unit of
  scheduling, sharding and persistence;
* each scenario's verdict is Theorem 1's condition decided directly: a
  linear-time DFS (:func:`~repro.checking.graphs.cycle_and_escape_edges`)
  over its dependency graph, which also yields the cycle witness and the
  escape edges (the edges lying on every cycle) of a deadlock-prone
  design;
* every verdict is certified: the search hands over a numbering or a
  cycle (plus one per cycle edge for the escape edges), and
  :func:`~repro.checking.graphs.check_certificate` re-checks it before
  the verdict is reported; a rejected certificate is an ``error``
  verdict that names the failed check.

``cross_check=True`` re-derives every verdict and escape set on one
:class:`~repro.core.deadlock.DeadlockQuerySession` per group (a Kahn
peel per query, over the union of the group's edges) and turns any
disagreement into an ``error`` verdict.

The engine (graphs, dependency enumeration, the cross-check session), the
verdict store and the process pool are imported on the paths that use
them, so a run whose groups all replay from the store loads none of them
but the store.
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.cache import instance_cache
from repro.core.errors import SolverTimeout
from repro.core.faultplan import execute_directive, resolve_fault_plan
from repro.core.spec import expand_matrix

if TYPE_CHECKING:
    from repro.core.deadlock import DeadlockQuerySession
    from repro.core.instance import NoCInstance
    from repro.core.spec import ScenarioSpec
    from repro.core.store import VerdictStore
    from repro.network.port import Port

#: Verdict statuses a scenario can end a run with: ``"ok"`` (it was
#: decided), ``"timeout"`` (a group or run deadline cut it off) or
#: ``"error"`` (its group's worker crashed or raised and every retry was
#: exhausted).
VERDICT_STATUSES = ("ok", "timeout", "error")

#: Default bound on pool rebuilds after worker crashes before the run
#: degrades to in-process serial execution.
DEFAULT_MAX_RETRIES = 2

#: Base (seconds) of the deterministic exponential backoff between pool
#: rebuilds: ``base * 2**(retry-1)``, capped at :data:`RETRY_BACKOFF_CAP`.
DEFAULT_RETRY_BACKOFF = 0.1
RETRY_BACKOFF_CAP = 2.0

#: The record kind portfolio groups are stored under (part of the key).
STORE_KIND = "repro-portfolio-report"


@dataclass
class Scenario:
    """One topology x routing x switching point of the sweep.

    A scenario is backed either by an already-built ``instance`` or --
    the cheap, preferred form -- by a declarative ``spec``
    (:class:`~repro.core.spec.ScenarioSpec`).  Spec-backed scenarios ship
    to portfolio worker processes as a few primitives and are resolved
    lazily through the per-process
    :class:`~repro.core.cache.InstanceCache`, so the parent never builds
    (or pickles) the heavy network objects.
    """

    name: str
    instance: Optional[NoCInstance] = None
    #: Scenarios with equal group are scheduled together and share one
    #: cross-check session (their topologies must have compatible port
    #: sets).  Defaults to the spec's
    #: group, else to the instance's topology shape.
    group: Optional[str] = None
    spec: Optional[ScenarioSpec] = None

    def __post_init__(self) -> None:
        if self.instance is None and self.spec is None:
            raise ValueError(
                f"scenario {self.name!r} needs an instance or a spec")

    @classmethod
    def from_spec(cls, spec: ScenarioSpec,
                  name: Optional[str] = None,
                  group: Optional[str] = None) -> "Scenario":
        """A lazily-resolved scenario described by ``spec``."""
        return cls(name=name or spec.scenario_name(), instance=None,
                   group=group, spec=spec)

    def resolve(self) -> NoCInstance:
        """The scenario's instance (built through the process cache).

        Deliberately does *not* store the built instance on the scenario:
        a resolved spec-backed scenario stays cheap to pickle.
        """
        if self.instance is not None:
            return self.instance
        return instance_cache().instance_for(self.spec)

    def group_key(self) -> str:
        if self.group is not None:
            return self.group
        if self.spec is not None:
            return self.spec.group_key()
        topology = self.instance.topology
        return f"{type(topology).__name__}[{len(topology.ports)} ports]"


def scenarios_from_specs(specs: Iterable[ScenarioSpec]) -> List[Scenario]:
    """Wrap every spec in a :class:`Scenario` (names derived from specs)."""
    return [Scenario.from_spec(spec) for spec in specs]


def shard_index_of(group_key: str, shard_count: int) -> int:
    """The shard a scenario group belongs to, stable across processes.

    Uses CRC-32 of the group key -- *not* Python's salted ``hash()`` -- so
    every worker, machine and CI job agrees on the partition.  Sharding is
    group-granular by construction: a group's scenarios always land on one
    shard, so sharded runs never split a group.
    """
    if shard_count < 1:
        raise ValueError("shard count must be at least 1")
    return zlib.crc32(group_key.encode("utf-8")) % shard_count


#: Recognised ``shard_balance`` policies of :func:`run_portfolio`.
SHARD_BALANCE_POLICIES = ("hash", "weighted")


def scenario_cost(scenario: Scenario) -> float:
    """Deterministic relative cost estimate of one scenario.

    Estimated from the spec's dimensions and channel counts: the number
    of network ports drives the dependency-edge count, and observed work
    grows super-linearly in the port count on the shipped topologies --
    so the model is ``ports ** 1.5``.  Instance-backed scenarios read
    their real port count; spec-backed scenarios *estimate* it from
    dims/VCs alone, so cost assignment never needs to build an instance.
    """
    spec = scenario.spec
    if spec is None:
        ports = len(scenario.instance.topology.ports)
        return float(ports) ** 1.5
    nodes = 1
    for dim in spec.dims:
        nodes *= int(dim)
    # Port model: rings have 2 cardinal ports per node, 2D kinds 4; one
    # local port each; VC kinds multiply the cardinal channels.
    cardinal = 2 if len(spec.dims) == 1 else 4
    ports = nodes * (cardinal * max(1, int(spec.num_vcs)) + 1)
    return float(ports) ** 1.5


def weighted_shard_assignment(group_costs: Dict[str, float],
                              shard_count: int) -> Dict[str, int]:
    """LPT (longest-processing-time) group-to-shard assignment.

    Groups are placed heaviest-first onto the currently lightest shard --
    the classic 4/3-approximation for makespan -- with every tie broken
    deterministically (equal costs: lexicographic group key; equal loads:
    lowest shard index), so all shards of a run agree on the partition
    without communicating, exactly like :func:`shard_index_of`.
    """
    if shard_count < 1:
        raise ValueError("shard count must be at least 1")
    loads = [0.0] * shard_count
    assignment: Dict[str, int] = {}
    for key, cost in sorted(group_costs.items(),
                            key=lambda item: (-item[1], item[0])):
        shard = min(range(shard_count), key=lambda index: loads[index])
        assignment[key] = shard
        loads[shard] += cost
    return assignment


@dataclass
class ScenarioVerdict:
    """The batch driver's answer for one scenario.

    ``status`` tells whether the verdict is a real decision (``"ok"``) or
    a structured failure record: ``"timeout"`` when a deadline cut the
    scenario off, ``"error"`` when its group failed for good.  For
    non-``ok`` verdicts ``deadlock_free`` is ``None`` and ``error``
    carries the deterministic reason string.
    """

    scenario: str
    topology: str
    routing: str
    switching: str
    deadlock_free: Optional[bool]
    #: Dependency edges of this scenario's routing function.
    edges: int
    #: Edges first seen in this scenario's group (0 for a scenario whose
    #: edges all appeared in earlier scenarios of the group).
    new_edges: int
    elapsed_seconds: float
    #: For deadlock-prone designs: a dependency cycle (as its edges) and
    #: the single-edge removals that would restore deadlock freedom.
    cycle_core: List[Tuple[Port, Port]] = field(default_factory=list)
    escape_edges: List[Tuple[Port, Port]] = field(default_factory=list)
    #: Which deadlock condition produced the verdict: ``"theorem1"``
    #: (whole-graph acyclicity) or ``"vc-escape"`` (the (V-1)/(V-2)
    #: escape-class condition of a virtual-channel scenario).
    condition: str = "theorem1"
    #: Virtual channels of the scenario (1 for the single-VC model).
    num_vcs: int = 1
    #: Work this scenario's cross-check queries cost on the shared
    #: session (``{"solves": n}``: its Kahn peels); empty when no
    #: cross-check ran.
    solver: Dict[str, int] = field(default_factory=dict)
    #: The originating :meth:`~repro.core.spec.ScenarioSpec.to_dict` image
    #: for spec-backed scenarios (``None`` for hand-built instances).
    spec: Optional[Dict[str, object]] = None
    #: ``(index, count)`` of the shard that ran this scenario (``None`` in
    #: an unsharded run).
    shard: Optional[Tuple[int, int]] = None
    #: Submission index of the scenario in the *full* scenario list (also
    #: meaningful in a sharded run, where it orders the merged verdicts).
    index: int = -1
    #: ``"ok"``, ``"timeout"`` or ``"error"`` (see class docstring).
    status: str = "ok"
    #: Deterministic failure reason for non-``ok`` verdicts.
    error: Optional[str] = None

    @staticmethod
    def _format_edge(entry) -> str:
        # Verdicts replayed from the store carry cores as the
        # already-formatted strings of their JSON image.
        if isinstance(entry, str):
            return entry
        source, target = entry
        return f"{source} -> {target}"

    def to_json_dict(self) -> Dict[str, object]:
        """A JSON-serialisable summary of this verdict (schema 4 shape)."""
        return {
            "scenario": self.scenario,
            "topology": self.topology,
            "routing": self.routing,
            "switching": self.switching,
            "condition": self.condition,
            "num_vcs": self.num_vcs,
            "status": self.status,
            "error": self.error,
            "deadlock_free": self.deadlock_free,
            "edges": self.edges,
            "new_edges": self.new_edges,
            "wall_time_s": round(self.elapsed_seconds, 6),
            "solver": dict(self.solver),
            "cycle_core": [self._format_edge(entry)
                           for entry in self.cycle_core],
            "escape_edges": [self._format_edge(entry)
                             for entry in self.escape_edges],
            "spec": dict(self.spec) if self.spec is not None else None,
            "shard": list(self.shard) if self.shard is not None else None,
        }

    @classmethod
    def from_json_dict(cls, payload: Dict[str, object],
                       index: Optional[int] = None) -> "ScenarioVerdict":
        """Rebuild a verdict from its :meth:`to_json_dict` image.

        The inverse used by store replay: cores/escape edges stay in
        their formatted string form (:meth:`to_json_dict` passes them
        through unchanged), so a replayed verdict re-serialises
        byte-identically to the original.
        """
        shard = payload.get("shard")
        return cls(
            scenario=payload["scenario"],
            topology=payload["topology"],
            routing=payload["routing"],
            switching=payload["switching"],
            deadlock_free=payload["deadlock_free"],
            edges=int(payload["edges"]),
            new_edges=int(payload["new_edges"]),
            elapsed_seconds=float(payload.get("wall_time_s", 0.0)),
            cycle_core=list(payload.get("cycle_core") or []),
            escape_edges=list(payload.get("escape_edges") or []),
            condition=str(payload.get("condition", "theorem1")),
            num_vcs=int(payload.get("num_vcs", 1)),
            solver=dict(payload.get("solver") or {}),
            spec=payload.get("spec"),
            shard=tuple(shard) if shard is not None else None,
            index=(int(payload.get("index", -1))
                   if index is None else index),
            status=str(payload.get("status", "ok")),
            error=payload.get("error"),
        )


@dataclass
class PortfolioReport:
    """All verdicts of one portfolio run plus session statistics."""

    verdicts: List[ScenarioVerdict]
    elapsed_seconds: float
    #: Per topology group: solver statistics of the shared cross-check
    #: session (empty when no cross-check ran).
    session_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Worker processes the run was scheduled across (1 = in-process serial).
    jobs: int = 1
    #: Construction-cache counters accumulated during the run (summed over
    #: the workers in a parallel run).
    cache_stats: Dict[str, int] = field(default_factory=dict)
    #: ``(index, count)`` of a sharded run (``None``: the whole matrix).
    shard: Optional[Tuple[int, int]] = None
    #: How the run survived: retry/degradation bookkeeping
    #: (``crash_retries``, ``degraded_serial``, ``group_attempts``).
    #: Environment history, not workload content -- stripped by
    #: :meth:`comparable_dict` like the cache counters.
    recovery: Dict[str, object] = field(default_factory=dict)
    #: Verdict-store session counters (:meth:`VerdictStore.stats`) when a
    #: store was attached; empty otherwise.  Environment history like
    #: :attr:`recovery` -- present in :meth:`to_json_dict` only for runs
    #: that used a store and always stripped by :meth:`comparable_dict`,
    #: so cold and warm runs stay ``==``-comparable.
    store_stats: Dict[str, object] = field(default_factory=dict)

    @property
    def deadlock_free_count(self) -> int:
        return sum(1 for verdict in self.verdicts
                   if verdict.status == "ok" and verdict.deadlock_free)

    @property
    def deadlock_prone_count(self) -> int:
        return sum(1 for verdict in self.verdicts
                   if verdict.status == "ok" and not verdict.deadlock_free)

    def status_counts(self) -> Dict[str, int]:
        """Verdict count per status (every status key always present)."""
        counts = {status: 0 for status in VERDICT_STATUSES}
        for verdict in self.verdicts:
            counts[verdict.status] = counts.get(verdict.status, 0) + 1
        return counts

    @property
    def failure_count(self) -> int:
        """Verdicts that are not real decisions (timeout or error)."""
        return sum(1 for verdict in self.verdicts
                   if verdict.status != "ok")

    def to_json_dict(self) -> Dict[str, object]:
        """Machine-readable export: scenarios, verdicts, solver statistics.

        The payload is the run's record for downstream tooling (the CI
        gates read ``summary.elapsed_seconds`` and compare verdicts), so
        its shape is versioned via ``schema``.  Schema 4 adds per-scenario
        ``status``/``error`` (graceful degradation: a failed group yields
        structured verdicts, not a lost report), the ``timeouts``/
        ``errors`` summary counters and the run-level ``recovery``
        record, plus -- only for runs that attached a verdict store -- a
        ``store`` counter block (conditional, so store-less payloads keep
        the historical schema-4 key set); schema 3 embedded the originating spec dict and the shard
        assignment per scenario; schema 2 added per-scenario
        ``wall_time_s`` and ``solver`` stats deltas, run-level ``jobs``
        and cache counters.
        """
        statuses = self.status_counts()
        payload: Dict[str, object] = {
            "schema": 4,
            "kind": "repro-portfolio-report",
            "jobs": self.jobs,
            "shard": list(self.shard) if self.shard is not None else None,
            "scenarios": [verdict.to_json_dict()
                          for verdict in self.verdicts],
            "summary": {
                "scenarios": len(self.verdicts),
                "deadlock_free": self.deadlock_free_count,
                "deadlock_prone": self.deadlock_prone_count,
                "timeouts": statuses["timeout"],
                "errors": statuses["error"],
                "elapsed_seconds": round(self.elapsed_seconds, 6),
                "jobs": self.jobs,
                "cache_hits": int(self.cache_stats.get("hits", 0)),
                "cache_misses": int(self.cache_stats.get("misses", 0)),
            },
            "session_stats": {group: dict(stats)
                              for group, stats in self.session_stats.items()},
            "cache": dict(self.cache_stats),
            "recovery": dict(self.recovery),
        }
        if self.store_stats:
            # Conditional on purpose: store-less runs keep the exact
            # schema-4 key set older consumers pin.
            payload["store"] = dict(self.store_stats)
        return payload

    def comparable_dict(self) -> Dict[str, object]:
        """The deterministic projection of :meth:`to_json_dict`.

        Serial and parallel runs of the same scenario list produce
        *identical* verdicts, ordering, cores and solver statistics; only
        wall times, the job count and the cache counters (which depend on
        process boundaries and cross-group sharing) legitimately differ.
        Scheduling artefacts -- the shard markers and the originating spec
        dicts -- are stripped too, so a matrix-expanded run can be compared
        bit for bit against the same scenarios built by hand, and the
        merged shard reports against the unsharded run, with one ``==``.
        """
        payload = self.to_json_dict()
        del payload["jobs"]
        del payload["cache"]
        del payload["shard"]
        del payload["recovery"]
        payload.pop("store", None)
        for scenario in payload["scenarios"]:
            del scenario["wall_time_s"]
            del scenario["spec"]
            del scenario["shard"]
        summary = payload["summary"]
        del summary["elapsed_seconds"]
        del summary["jobs"]
        del summary["cache_hits"]
        del summary["cache_misses"]
        return payload

    def write_json(self, path: str) -> None:
        """Write :meth:`to_json_dict` to ``path`` (pretty-printed)."""
        import json

        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json_dict(), handle, indent=2, sort_keys=False)
            handle.write("\n")

    def formatted(self) -> str:
        from repro.reporting.tables import format_table, verdict_cell

        rows = []
        for verdict in self.verdicts:
            fixes = ", ".join(verdict._format_edge(entry).replace(" ", "")
                              for entry in verdict.escape_edges[:2])
            if len(verdict.escape_edges) > 2:
                fixes += ", ..."
            rows.append([
                verdict.scenario, verdict.routing, verdict.switching,
                verdict_cell(verdict.status, verdict.deadlock_free),
                verdict.edges, verdict.new_edges,
                f"{verdict.elapsed_seconds * 1000:.1f}",
                fixes or "-",
            ])
        return format_table(
            ["scenario", "routing", "switching", "verdict", "dep edges",
             "new edges", "ms", "escape fixes"], rows)

    def summary(self) -> str:
        statuses = self.status_counts()
        shard = (f" [shard {self.shard[0]}/{self.shard[1]}]"
                 if self.shard is not None else "")
        failures = ""
        if statuses["timeout"] or statuses["error"]:
            failures = (f", {statuses['timeout']} timed out, "
                        f"{statuses['error']} errored")
        return (f"portfolio{shard}: {len(self.verdicts)} scenarios, "
                f"{self.deadlock_free_count} deadlock-free, "
                f"{self.deadlock_prone_count} deadlock-prone{failures}, "
                f"{self.elapsed_seconds:.3f}s total")


def merge_shard_reports(reports: Sequence[PortfolioReport]
                        ) -> PortfolioReport:
    """Merge the reports of a sharded run back into one portfolio report.

    The shards of one matrix partition the scenario groups, so their
    verdict sets are disjoint and their union is the unsharded run; this
    helper re-interleaves the verdicts by original submission index and
    re-unions the per-group session statistics.  The merged report's
    :meth:`~PortfolioReport.comparable_dict` equals the unsharded run's --
    the contract the sharded CI smoke job asserts.
    """
    shards = {report.shard for report in reports}
    if shards and None not in shards:
        # Every input knows its (i, n): demand one complete shard set, so
        # a lost shard artifact cannot silently masquerade as a full run.
        counts = {count for _, count in shards}
        if len(counts) != 1:
            raise ValueError(f"shard reports disagree on the shard count: "
                             f"{sorted(counts)}")
        count = counts.pop()
        missing = sorted(set(range(count)) - {index for index, _ in shards})
        if missing:
            raise ValueError(f"incomplete shard set: missing shard(s) "
                             f"{missing} of {count}")
    verdicts = sorted((verdict for report in reports
                       for verdict in report.verdicts),
                      key=lambda verdict: verdict.index)
    indices = [verdict.index for verdict in verdicts]
    if len(set(indices)) != len(indices):
        from collections import Counter

        duplicates = sorted(index for index, count
                            in Counter(indices).items() if count > 1)
        raise ValueError(f"shard reports overlap: duplicate scenario "
                         f"indices {duplicates}")
    session_stats: Dict[str, Dict[str, int]] = {}
    cache_stats = {"hits": 0, "misses": 0}
    for report in reports:
        overlap = set(report.session_stats) & set(session_stats)
        if overlap:
            raise ValueError(f"shard reports overlap on groups "
                             f"{sorted(overlap)}")
        session_stats.update(report.session_stats)
        cache_stats["hits"] += int(report.cache_stats.get("hits", 0))
        cache_stats["misses"] += int(report.cache_stats.get("misses", 0))
    recovery: Dict[str, object] = {}
    if any(report.recovery for report in reports):
        group_attempts: Dict[str, int] = {}
        for report in reports:
            group_attempts.update(report.recovery.get("group_attempts", {}))
        recovery = {
            "crash_retries": sum(int(report.recovery.get("crash_retries", 0))
                                 for report in reports),
            "degraded_serial": any(report.recovery.get("degraded_serial")
                                   for report in reports),
            "group_attempts": group_attempts,
        }
    store_stats: Dict[str, object] = {}
    if any(report.store_stats for report in reports):
        from repro.core.store import STORE_COUNTERS

        modes = sorted({str(report.store_stats.get("mode"))
                        for report in reports if report.store_stats})
        store_stats = {"mode": modes[0] if len(modes) == 1 else "mixed"}
        for counter in STORE_COUNTERS:
            store_stats[counter] = sum(
                int(report.store_stats.get(counter, 0))
                for report in reports)
        store_stats["replayed_groups"] = sorted(
            group for report in reports
            for group in report.store_stats.get("replayed_groups", []))
    return PortfolioReport(
        verdicts=verdicts,
        elapsed_seconds=sum(report.elapsed_seconds for report in reports),
        session_stats=session_stats,
        jobs=max((report.jobs for report in reports), default=1),
        cache_stats=cache_stats,
        shard=None,
        recovery=recovery,
        store_stats=store_stats)


def routing_dependency_graph(routing):
    """The dependency graph a scenario's verdict is decided on: the
    routing's :func:`~repro.core.dependency.dependency_id_graph`, over
    the route table's port ids.

    A module attribute, not a local import in :func:`_run_group`, so the
    dependency layer has one entry point to time from outside
    (``perfbench/spans.py`` wraps it); importing inside keeps the layer
    off the store-replay path.
    """
    from repro.core.dependency import dependency_id_graph

    return dependency_id_graph(routing)


def engine_fingerprint() -> str:
    """The current engine source fingerprint (see ``repro.__init__``).

    Stored groups are keyed by it: a hash over every ``.py`` source in the
    package, so any code change -- solver, routing, spec normalization --
    yields a new fingerprint, and verdicts computed by an older engine are
    recomputed, never replayed.
    """
    import repro

    return repro.__engine_fingerprint__


def _failure_verdict(index: int, scenario: Scenario, group_key: str,
                     shard: Optional[Tuple[int, int]], status: str,
                     error: str, instance: Optional[NoCInstance] = None,
                     solver: Optional[Dict[str, int]] = None,
                     elapsed: float = 0.0) -> ScenarioVerdict:
    """A structured non-``ok`` verdict for a scenario its group failed on.

    Identity fields come from the resolved instance when the failure
    struck mid-group, else from the declarative spec tokens -- never from
    wall-clock or process state, so failure verdicts are exactly as
    deterministic as decisions.
    """
    spec = scenario.spec
    if instance is not None:
        topology = str(instance.topology)
        routing = instance.routing.name()
        switching = instance.switching.name()
    elif spec is not None:
        topology = spec.group_key()
        routing = spec.routing or "-"
        switching = spec.switching or "-"
    else:
        topology = group_key
        routing = switching = "-"
    return ScenarioVerdict(
        scenario=scenario.name,
        topology=topology,
        routing=routing,
        switching=switching,
        deadlock_free=None,
        edges=0,
        new_edges=0,
        elapsed_seconds=elapsed,
        condition="none",
        num_vcs=spec.num_vcs if spec is not None else 1,
        solver=dict(solver or {}),
        spec=spec.to_dict() if spec is not None else None,
        shard=shard,
        index=index,
        status=status,
        error=error,
    )


def _run_group(payload: Tuple,
               trace=None) -> Tuple[str, List[Tuple[int, ScenarioVerdict]],
                                    Dict[str, int], Dict[str, int]]:
    """Decide one scenario group with the dependency-graph search.

    ``payload`` is one picklable tuple ``(group_key, indexed_scenarios,
    cross_check, shard[, budget_s, fault_directive, parent_pid])``, so the
    function ships as-is to a pool worker, which resolves spec-backed
    scenarios through its own :class:`~repro.core.cache.InstanceCache`.
    Scenarios run in submission order on this one code path, serially or
    in a worker alike -- which makes parallel runs bit-for-bit
    reproductions of serial ones.

    A verdict is :func:`~repro.checking.graphs.cycle_and_escape_edges`
    over the scenario's query edges: the whole dependency graph (Theorem
    1), or its escape-class edges behind explicit (V-1) coverage (VC
    scenarios).  A cyclic query reports the DFS cycle as ``cycle_core``
    and the edges on every cycle as ``escape_edges``.  Its certificate
    goes through :func:`~repro.checking.graphs.check_certificate` first;
    a rejection raises :class:`~repro.checking.graphs.CertificateError`,
    which like any exception turns the group's unfinished scenarios into
    ``error`` verdicts.  ``cross_check`` replays the same
    questions on one :class:`~repro.core.deadlock.DeadlockQuerySession`
    per group (new edges join its universe; a verdict is one peel of the
    query edges; a prone answer adds a cycle and one peel per cycle edge)
    and raises on any difference; only then are solver stats (the peel
    count) recorded.

    ``budget_s`` arms a cooperative deadline, checked before every build
    and scenario; ``fault_directive`` is a test-only injected failure
    (:mod:`repro.core.faultplan`); ``parent_pid`` tells a sacrificial
    worker from the orchestrating process.  A group never aborts the run:
    a :class:`SolverTimeout` or any other exception turns the unfinished
    scenarios into ``timeout``/``error`` verdicts, and the in-flight one
    keeps its partial solver delta.  ``trace`` (serial runs only) gets a
    ``scenario_begin``/``scenario_end`` span per scenario and a closing
    ``session_summary`` (plus ``group_timeout``/``group_error`` on a cut).

    Returns the group key, the ``(original_index, verdict)`` pairs, the
    session's solver statistics (empty without a cross-check) and the
    group's construction-cache counter deltas.
    """
    from repro.checking.graphs import (
        CertificateError,
        DirectedGraph,
        ReprRanks,
        check_certificate,
        cycle_and_escape_edges,
    )
    from repro.routing.escape import EscapeChannelRouting

    group_key, indexed_scenarios, cross_check, shard = payload[:4]
    budget_s = payload[4] if len(payload) > 4 else None
    directive = payload[5] if len(payload) > 5 else None
    parent_pid = payload[6] if len(payload) > 6 else os.getpid()
    in_worker = os.getpid() != parent_pid

    cache = instance_cache()
    cache_hits_before = cache.hits
    cache_misses_before = cache.misses

    deadline = (time.monotonic() + budget_s
                if budget_s is not None else None)

    def checkpoint() -> None:
        if deadline is not None and time.monotonic() >= deadline:
            raise SolverTimeout(f"group timeout after {budget_s:g}s")

    def solver_stats() -> Dict[str, int]:
        return session.solver_stats if session is not None else {}

    session: Optional[DeadlockQuerySession] = None
    resolved: List[Tuple[int, Scenario, NoCInstance]] = []
    instances: Dict[int, NoCInstance] = {}
    cache_deltas: Dict[int, Dict[str, int]] = {}
    results: List[Tuple[int, ScenarioVerdict]] = []
    #: The scenario whose span is open when a failure strikes:
    #: ``(index, scenario, instance, solver_before, started)``.
    current: Optional[Tuple] = None
    failure: Optional[Tuple[str, str]] = None

    try:
        execute_directive(directive, in_worker)
        for index, scenario in indexed_scenarios:
            checkpoint()
            hits_before, misses_before = cache.hits, cache.misses
            instance = scenario.resolve()
            cache_deltas[index] = {"hits": cache.hits - hits_before,
                                   "misses": cache.misses - misses_before}
            resolved.append((index, scenario, instance))
            instances[index] = instance
        if cross_check:
            from repro.core.deadlock import DeadlockQuerySession

            base: DirectedGraph[Port] = DirectedGraph()
            for _, _, instance in resolved:
                for port in instance.topology.ports:
                    base.add_vertex(port)
            session = DeadlockQuerySession(base, name=group_key, trace=trace)
        #: Edges already met in the group, as pairs of group-wide port ids.
        port_ids: Dict[Port, int] = {}
        known_edges: set = set()
        repr_ranks = ReprRanks().ranks

        for index, scenario, instance in resolved:
            checkpoint()
            if trace is not None:
                trace.emit("scenario_begin", scenario=scenario.name,
                           group=group_key, index=index,
                           shard=list(shard) if shard is not None else None)
            scenario_start = time.perf_counter()
            solver_before = solver_stats()
            current = (index, scenario, instance, solver_before,
                       scenario_start)
            graph = routing_dependency_graph(instance.routing)
            ports = graph.vertices
            ids = [port_ids.setdefault(port, len(port_ids)) for port in ports]
            new_edges = [(p, q) for p, row in enumerate(graph.successors)
                         for q in row if (ids[p], ids[q]) not in known_edges]
            known_edges.update((ids[p], ids[q]) for p, q in new_edges)

            relation = (instance.routing
                        if isinstance(instance.routing, EscapeChannelRouting)
                        else None)
            if relation is None:
                condition = "theorem1"
                num_vcs = 1
                query = graph
                covered = True
            else:
                # The VC-granular Duato condition: explicit (V-1) coverage
                # plus the escape-class restriction of (V-2).
                from repro.core.obligations import check_v1_escape_coverage
                from repro.network.vc import vc_of

                condition = "vc-escape"
                num_vcs = relation.num_vcs
                escape_vcs = relation.escape_vcs
                query = graph.restrict([vc_of(port) in escape_vcs
                                        for port in ports])
                covered = check_v1_escape_coverage(relation).holds
            cycle_core, escape, certificate = cycle_and_escape_edges(
                query, repr_ranks(ports))
            rejected = check_certificate(query.successors, certificate,
                                         ports)
            if rejected is not None:
                raise CertificateError(
                    f"{scenario.name}: certificate rejected: {rejected}")
            deadlock_free = covered and not cycle_core

            if session is not None:
                for p, q in new_edges:
                    session.add_edge(ports[p], ports[q])
                query_edges = query.edges()
                free = covered and session.is_deadlock_free_edges(query_edges)
                fixes = (set() if free
                         else set(session.escape_edges_for(query_edges)))
                if free != deadlock_free or fixes != set(escape):
                    raise AssertionError(
                        f"cross-check disagrees on {scenario.name}: graph "
                        f"search free={deadlock_free} with {len(escape)} "
                        f"escape edges, Kahn session free={free} with "
                        f"{len(fixes)} escape edges")

            solver_after = solver_stats()
            solver_delta = {key: solver_after[key] - solver_before.get(key, 0)
                            for key in solver_after}
            elapsed = time.perf_counter() - scenario_start
            if trace is not None:
                trace.emit("scenario_end", scenario=scenario.name,
                           group=group_key, deadlock_free=deadlock_free,
                           condition=condition, edges=graph.edge_count,
                           new_edges=len(new_edges), solver=solver_delta,
                           cache=cache_deltas[index],
                           wall_time_s=round(elapsed, 6), status="ok")
            results.append((index, ScenarioVerdict(
                scenario=scenario.name,
                topology=str(instance.topology),
                routing=instance.routing.name(),
                switching=instance.switching.name(),
                deadlock_free=deadlock_free,
                edges=graph.edge_count,
                new_edges=len(new_edges),
                elapsed_seconds=elapsed,
                cycle_core=cycle_core,
                escape_edges=escape,
                condition=condition,
                num_vcs=num_vcs,
                solver=solver_delta,
                spec=(scenario.spec.to_dict()
                      if scenario.spec is not None else None),
                shard=shard,
                index=index,
            )))
            current = None
    except SolverTimeout as exc:
        failure = ("timeout", getattr(exc, "reason", None) or str(exc))
    except Exception as exc:  # KeyboardInterrupt deliberately excluded
        failure = ("error", f"{type(exc).__name__}: {exc}")

    if failure is not None:
        status, reason = failure
        if current is not None:
            # Close the in-flight scenario's span, attributing the solver
            # work it burned before the cut-off -- the per-group
            # reconciliation (scenario deltas sum to session aggregates)
            # must keep holding on truncated traces.
            index, scenario, instance, solver_before, started = current
            solver_after = solver_stats()
            partial = {key: solver_after[key] - solver_before.get(key, 0)
                       for key in solver_after}
            elapsed = time.perf_counter() - started
            if trace is not None:
                trace.emit("scenario_end", scenario=scenario.name,
                           group=group_key, deadlock_free=None,
                           condition="none", edges=0, new_edges=0,
                           solver=partial, cache=cache_deltas.get(index, {}),
                           wall_time_s=round(elapsed, 6), status=status)
            results.append((index, _failure_verdict(
                index, scenario, group_key, shard, status, reason,
                instance=instance, solver=partial, elapsed=elapsed)))
        done = {index for index, _ in results}
        for index, scenario in indexed_scenarios:
            if index not in done:
                results.append((index, _failure_verdict(
                    index, scenario, group_key, shard, status, reason,
                    instance=instances.get(index))))
        results.sort(key=lambda pair: pair[0])
        if trace is not None:
            trace.emit("group_timeout" if status == "timeout"
                       else "group_error", group=group_key, reason=reason)

    session_stats = solver_stats()
    if trace is not None:
        trace.emit("session_summary", group=group_key, stats=session_stats)
    cache_delta = {"hits": cache.hits - cache_hits_before,
                   "misses": cache.misses - cache_misses_before}
    return group_key, results, session_stats, cache_delta


def _emit_replayed_group(trace, result: Tuple,
                         shard: Optional[Tuple[int, int]]) -> None:
    """Trace spans for a group replayed from the verdict store.

    A warm-cache run does no graph or solver work, but its trace must
    still satisfy the reconciliation contract (per-scenario
    ``scenario_end`` solver deltas sum to the group's ``session_summary``
    stats), so the spans are re-emitted from the stored record with
    ``cached: true``.  A replayed group built nothing, so its per-scenario
    ``cache`` deltas are empty.
    """
    key, pairs, stats, _cache_delta = result
    for index, verdict in pairs:
        trace.emit("scenario_begin", scenario=verdict.scenario,
                   group=key, index=index,
                   shard=list(shard) if shard is not None else None,
                   cached=True)
        trace.emit("scenario_end", scenario=verdict.scenario,
                   group=key, deadlock_free=verdict.deadlock_free,
                   condition=verdict.condition, edges=verdict.edges,
                   new_edges=verdict.new_edges,
                   solver=dict(verdict.solver), cache={},
                   wall_time_s=round(verdict.elapsed_seconds, 6),
                   status=verdict.status, cached=True)
    trace.emit("session_summary", group=key, stats=dict(stats),
               cached=True)


def _select_groups(scenarios: Sequence[Scenario],
                   shard: Optional[Tuple[int, int]],
                   shard_balance: str
                   ) -> Dict[str, List[Tuple[int, Scenario]]]:
    """The run's ``(index, scenario)`` groups, cut to its shard.

    Groups and the scenarios within them keep submission order.  A
    cross-checked group seeds its session with the union of the group's
    vertex universes, so scenarios over growing channel sets (1, 2, 4 VCs
    of one topology) can share one edge universe.
    """
    groups: Dict[str, List[Tuple[int, Scenario]]] = {}
    for index, scenario in enumerate(scenarios):
        groups.setdefault(scenario.group_key(), []).append((index, scenario))
    if shard is None:
        return groups
    if shard_balance == "weighted":
        # Costs are derived from the FULL group set (every shard sees the
        # whole scenario list), so all shards compute the same LPT
        # assignment independently.
        costs = {key: sum(scenario_cost(scenario) for _, scenario in indexed)
                 for key, indexed in groups.items()}
        assignment = weighted_shard_assignment(costs, shard[1])
        return {key: indexed for key, indexed in groups.items()
                if assignment[key] == shard[0]}
    return {key: indexed for key, indexed in groups.items()
            if shard_index_of(key, shard[1]) == shard[0]}


def _group_specs(indexed: List[Tuple[int, Scenario]]
                 ) -> List[Tuple[int, str]]:
    """A group's ``(index, scenario_fingerprint)`` pairs: its store identity."""
    from repro.core.store import scenario_fingerprint

    return [(index, scenario_fingerprint(
                scenario.spec if scenario.spec is not None else scenario))
            for index, scenario in indexed]


def _replay_stored_groups(verdict_store: VerdictStore, fingerprint: str,
                          run_key: Dict[str, object],
                          group_specs: Dict[str, List[Tuple[int, str]]]
                          ) -> Dict[str, Tuple]:
    """Every group the store already holds, as :func:`_run_group` results.

    The one replay path: :func:`run_portfolio` skips these groups, and
    :func:`stored_groups` (the ``repro batch`` SIGINT epilogue) prints
    them.  A replayed group built nothing, so it contributes no
    construction-cache work.
    """
    replayed: Dict[str, Tuple] = {}
    for key, specs in group_specs.items():
        record = verdict_store.lookup(fingerprint, STORE_KIND, run_key, key,
                                      specs)
        if record is None:
            continue
        pairs = [(int(entry["index"]),
                  ScenarioVerdict.from_json_dict(entry,
                                                 index=int(entry["index"])))
                 for entry in record["verdicts"]]
        replayed[key] = (key, pairs, dict(record["session_stats"]),
                         {"hits": 0, "misses": 0})
    return replayed


def stored_groups(scenarios: Sequence[Scenario], store: str,
                  cross_check: bool = False,
                  shard: Optional[Tuple[int, int]] = None,
                  shard_balance: str = "hash") -> Dict[str, Tuple]:
    """The groups of a sweep that ``store`` already holds, read-only.

    Takes the same run parameters as :func:`run_portfolio` and looks the
    groups up exactly as a rerun would, so what it returns is what a
    rerun with the same store replays.
    """
    from repro.core.store import VerdictStore, make_run_key

    groups = _select_groups(scenarios, shard, shard_balance)
    verdict_store = VerdictStore(os.fspath(store), readonly=True).open()
    return _replay_stored_groups(
        verdict_store, engine_fingerprint(),
        make_run_key(cross_check, shard),
        {key: _group_specs(indexed) for key, indexed in groups.items()})


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None``/``0`` mean "all cores"."""
    if jobs is None or jobs < 1:
        return os.cpu_count() or 1
    return jobs


def _terminate_pool(pool) -> None:
    """Hard-stop a pool whose workers may be wedged or dead.

    ``shutdown()`` alone would join a hung worker forever (and so would
    the interpreter's atexit handler); terminating the worker processes
    first guarantees the join returns.  Everything is guarded: the worst
    case of a CPython that renamed the private process table is a leaked
    worker, not a crashed run.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:
            pass
    try:
        pool.shutdown(wait=True, cancel_futures=True)
    except Exception:
        try:
            pool.shutdown(wait=False)
        except Exception:
            pass


def run_portfolio(scenarios: Sequence[Scenario],
                  cross_check: bool = False,
                  jobs: int = 1,
                  shard: Optional[Tuple[int, int]] = None,
                  shard_balance: str = "hash",
                  trace=None,
                  group_timeout: Optional[float] = None,
                  run_deadline: Optional[float] = None,
                  max_retries: int = DEFAULT_MAX_RETRIES,
                  retry_backoff: float = DEFAULT_RETRY_BACKOFF,
                  store=None,
                  store_readonly: bool = False,
                  _fault_plan=None) -> PortfolioReport:
    """Decide every scenario with the dependency-graph search.

    Each verdict comes from a DFS over the scenario's dependency graph
    (see :func:`_run_group`); deadlock-prone scenarios also get a cycle
    witness and their escape edges.  ``cross_check`` re-derives every
    verdict and escape set on a shared Kahn-peeling session per group
    and turns any disagreement into an ``error`` verdict; only then does
    the report carry solver statistics (``{"solves": n}``, the peels).

    ``jobs`` schedules the scenario *groups* across that many worker
    processes (``0``/``None``: one per core).  Scheduling is group-affine:
    scenarios sharing a ``group_key`` stay on one worker, in submission
    order, so the per-process instance cache (and a cross-check's
    group session) keep paying off exactly as in a serial run.  The
    verdicts -- ordering, verdict bits, cores, solver statistics -- are
    identical to ``jobs=1``; only wall times and cache counters differ
    (assert with :meth:`PortfolioReport.comparable_dict`).

    ``shard=(i, n)`` restricts the run to the ``i``-th of ``n`` partitions
    of the scenario *groups* (assignment by :func:`shard_index_of`, stable
    across processes and machines).  Pass the **full** scenario list to
    every shard: each shard selects its own groups, keeps the original
    submission indices on its verdicts, and never splits a group -- so
    :func:`merge_shard_reports` reassembles the exact unsharded report.

    ``shard_balance`` chooses the group-to-shard assignment: ``"hash"``
    (CRC-32, cost-oblivious) or ``"weighted"`` (LPT over the
    :func:`scenario_cost` model, evening out shard wall times on skewed
    grids).  Both are deterministic functions of the full scenario list,
    so every shard of one run agrees on the partition; the merged report
    is identical either way, only the work split differs.

    Scenarios whose routing is a
    :class:`~repro.routing.escape.EscapeChannelRouting` are decided by the
    VC-granular escape condition: (V-1) by explicit enumeration, (V-2) as
    the cycle search restricted to the escape-class edges.  Their
    cross-check sessions therefore host *channel* vertices; mix VC and
    single-VC scenarios in one group only if their vertex universes
    agree.

    ``trace`` (a :class:`~repro.core.trace.TraceWriter`) records the run as
    a structured event stream -- portfolio/scenario spans, wrapping the
    session's ``oracle_query`` events of a cross-checked run.  Tracing is
    **serial only**: a writer cannot cross the process-pool boundary, so
    ``trace`` with ``jobs != 1`` is an error rather than a silently
    partial stream.

    **Fault tolerance.**  ``group_timeout`` bounds every scenario group's
    wall time (seconds): the group stops at its next build or scenario
    (:class:`~repro.core.errors.SolverTimeout`) and the group's
    unfinished scenarios become ``status="timeout"`` verdicts; a
    truly wedged worker is additionally reaped by the parent's watch
    loop.  ``run_deadline`` bounds the whole run the same way.  A crashed
    worker (:class:`~concurrent.futures.process.BrokenProcessPool`) is
    survived by rebuilding the pool and retrying only the unfinished
    groups, with deterministic exponential backoff (``retry_backoff *
    2**(n-1)``, capped); after ``max_retries`` rebuilds the run degrades
    to in-process serial execution.  No failure aborts the run: every
    scenario always gets a verdict, and ``report.recovery`` records what
    it took.

    **Verdict store and resume.**  ``store`` (a directory path or an
    opened :class:`~repro.core.store.VerdictStore`) is the only
    persistence layer.  Before deciding, a group whose record matches the
    engine fingerprint, run key and spec hashes is replayed from disk
    (no graph or solver work) and still yields a
    :meth:`~PortfolioReport.comparable_dict`-identical report; every
    freshly decided all-``ok`` group is durably recorded as soon as it
    completes.  Resuming a killed sweep is therefore rerunning it with
    the same store: it continues where it crashed and reproduces the
    clean report byte for byte.  Stale records (edited engine or
    scenarios) are recomputed, never trusted.  The store degrades rather
    than fails -- corrupt records are quarantined and recomputed, an
    unwritable directory serves lookups only (or pass
    ``store_readonly=True`` to demand that), an unusable one turns the
    run cache-less -- and its session counters land in
    ``report.store_stats``.  Lookups and records happen in the
    orchestrator, not the workers, so the store composes with ``jobs``.

    ``_fault_plan`` (tests/CI only; also settable via the
    ``REPRO_FAULT_PLAN`` environment variable) deterministically injects
    worker kills, hangs, errors or timeouts per group -- see
    :mod:`repro.core.faultplan`.
    """
    start = time.perf_counter()
    ordered = list(scenarios)
    jobs = resolve_jobs(jobs)
    if trace is not None and jobs > 1:
        raise ValueError(
            "tracing requires a serial run: pass jobs=1 with trace=")
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    fault_plan = resolve_fault_plan(_fault_plan)
    if shard_balance not in SHARD_BALANCE_POLICIES:
        raise ValueError(f"shard_balance must be one of "
                         f"{SHARD_BALANCE_POLICIES}, got {shard_balance!r}")
    if shard is not None:
        shard_index, shard_count = int(shard[0]), int(shard[1])
        if shard_count < 1 or not 0 <= shard_index < shard_count:
            raise ValueError(f"shard must be (i, n) with 0 <= i < n, "
                             f"got {shard!r}")
        shard = (shard_index, shard_count)

    groups = _select_groups(ordered, shard, shard_balance)

    # In a sharded run the verdict list covers only this shard's scenarios;
    # verdicts keep their original submission index, the report orders them
    # by it.
    kept_indices = sorted(index for indexed in groups.values()
                          for index, _ in indexed)
    positions = {index: position
                 for position, index in enumerate(kept_indices)}

    order = list(groups.keys())
    base_payloads = {key: (key, groups[key], cross_check, shard)
                     for key in order}

    if trace is not None:
        trace.emit("portfolio_begin", scenarios=len(kept_indices),
                   shard=list(shard) if shard is not None else None)

    # -- the verdict store: replay recorded groups, record decided ones -----
    verdict_store: Optional[VerdictStore] = None
    completed: Dict[str, Tuple] = {}
    if store is not None:
        from repro.core.store import VerdictStore, make_run_key

        if isinstance(store, VerdictStore):
            verdict_store = store
            if verdict_store.mode == "off" and \
                    verdict_store.degraded_reason is None:
                verdict_store.open()
        else:
            verdict_store = VerdictStore(os.fspath(store),
                                         readonly=store_readonly).open()
    if verdict_store is not None:
        if trace is not None:
            verdict_store.attach_trace(trace)
        fingerprint = engine_fingerprint()
        run_key = make_run_key(cross_check, shard)
        group_specs = {key: _group_specs(groups[key]) for key in order}
        completed = _replay_stored_groups(verdict_store, fingerprint,
                                          run_key, group_specs)
        if trace is not None:
            for key in order:
                if key in completed:
                    _emit_replayed_group(trace, completed[key], shard)
    store_replayed = sorted(completed)

    def store_group(result: Tuple) -> None:
        """Durably record a freshly decided group as it completes (iff
        every verdict is a real decision -- failures describe a run, not
        the scenarios)."""
        key, pairs, stats, cache_delta = result
        if verdict_store is None:
            return
        if any(verdict.status != "ok" for _, verdict in pairs):
            return
        verdict_store.record(
            fingerprint, STORE_KIND, run_key, key, group_specs[key],
            [(index, verdict.to_json_dict()) for index, verdict in pairs],
            stats, cache_delta)

    # -- execution with deadlines, crash recovery, degradation ---------------
    deadline = (time.monotonic() + run_deadline
                if run_deadline is not None else None)
    attempts: Dict[str, int] = {}
    crash_retries = 0
    degraded = False
    parent_pid = os.getpid()
    pending: "Dict[str, None]" = {key: None for key in order
                                  if key not in completed}

    def group_budget() -> Optional[float]:
        budget = group_timeout
        if deadline is not None:
            remaining = max(0.0, deadline - time.monotonic())
            budget = remaining if budget is None else min(budget, remaining)
        return budget

    def fault_directive(key: str) -> Optional[Tuple[str, float]]:
        if not fault_plan:
            return None
        directive = fault_plan.directive_for(key, attempts[key])
        if directive is None:
            return None
        return (directive.action, directive.param)

    def parent_failure(key: str, status: str, reason: str) -> Tuple:
        """A whole-group failure decided by the orchestrator (no worker
        result to harvest: the worker hung, or never started)."""
        pairs = [(index, _failure_verdict(index, scenario, key, shard,
                                          status, reason))
                 for index, scenario in groups[key]]
        if trace is not None:
            trace.emit("group_timeout" if status == "timeout"
                       else "group_error", group=key, reason=reason)
        return (key, pairs, {}, {"hits": 0, "misses": 0})

    def run_in_process(keys: List[str]) -> None:
        for key in keys:
            if deadline is not None and time.monotonic() >= deadline:
                completed[key] = parent_failure(key, "timeout",
                                                "run deadline exceeded")
                pending.pop(key, None)
                continue
            attempts[key] = attempts.get(key, 0) + 1
            payload = base_payloads[key] + (group_budget(),
                                            fault_directive(key), parent_pid)
            result = _run_group(payload, trace=trace)
            completed[key] = result
            store_group(result)
            pending.pop(key, None)

    use_pool = jobs > 1 and len(pending) > 1
    report_jobs = min(jobs, len(pending)) if use_pool else 1

    if not use_pool:
        run_in_process(list(pending))
    else:
        from concurrent.futures import (
            FIRST_COMPLETED,
            ProcessPoolExecutor,
            wait as futures_wait,
        )
        from concurrent.futures.process import BrokenProcessPool

        # The parent-side watch loop reaps workers the cooperative
        # in-worker deadline cannot reach (truly wedged processes),
        # with a grace margin so a worker about to return its own
        # richer timeout verdict usually wins the race.
        external_timeout = (group_timeout * 1.25 + 0.2
                            if group_timeout is not None else None)
        while pending:
            if deadline is not None and time.monotonic() >= deadline:
                for key in list(pending):
                    completed[key] = parent_failure(
                        key, "timeout", "run deadline exceeded")
                pending.clear()
                break
            if degraded:
                run_in_process(list(pending))
                break
            workers = min(jobs, len(pending))
            pool = ProcessPoolExecutor(max_workers=workers)
            pool_broken = False
            kill_pool = False
            try:
                queue = list(pending)
                active: Dict[object, Tuple[str, float]] = {}

                def submit_ready() -> None:
                    # At most ``workers`` groups in flight: a group's
                    # timeout clock must not start ticking while it
                    # sits in an executor queue behind other groups.
                    while queue and len(active) < workers:
                        key = queue.pop(0)
                        attempts[key] = attempts.get(key, 0) + 1
                        payload = base_payloads[key] + (
                            group_budget(), fault_directive(key),
                            parent_pid)
                        future = pool.submit(_run_group, payload)
                        active[future] = (key, time.monotonic())

                submit_ready()
                while active:
                    tick = (0.05 if (external_timeout is not None
                                     or deadline is not None) else None)
                    done, _ = futures_wait(set(active), timeout=tick,
                                           return_when=FIRST_COMPLETED)
                    for future in done:
                        key, _started = active.pop(future)
                        try:
                            result = future.result()
                        except BrokenProcessPool:
                            pool_broken = True
                            continue
                        except Exception as exc:
                            completed[key] = parent_failure(
                                key, "error",
                                f"{type(exc).__name__}: {exc}")
                            pending.pop(key, None)
                            continue
                        completed[key] = result
                        store_group(result)
                        pending.pop(key, None)
                    if pool_broken:
                        kill_pool = True
                        break
                    now = time.monotonic()
                    if deadline is not None and now >= deadline:
                        kill_pool = True
                        break
                    if external_timeout is not None:
                        expired = [
                            (future, key)
                            for future, (key, started) in active.items()
                            if now - started >= external_timeout]
                        if expired:
                            for future, key in expired:
                                active.pop(future)
                                completed[key] = parent_failure(
                                    key, "timeout",
                                    f"group timeout after "
                                    f"{group_timeout:g}s")
                                pending.pop(key, None)
                            # A wedged worker cannot be cancelled --
                            # the pool dies with it; innocent active
                            # groups stay pending and are resubmitted
                            # (progress is guaranteed: ``pending``
                            # shrank by the expired groups).
                            kill_pool = True
                            break
                    submit_ready()
            except BrokenProcessPool:
                # submit() on an already-broken pool raises too; the
                # group stays pending and the rebuild path retries it.
                pool_broken = True
                kill_pool = True
            except KeyboardInterrupt:
                # Ctrl-C must not join a possibly-hung worker: kill the
                # pool and let the interrupt propagate (every group
                # completed so far is already in the store).
                kill_pool = True
                raise
            finally:
                if kill_pool or pool_broken:
                    _terminate_pool(pool)
                else:
                    pool.shutdown(wait=True)
            if pool_broken:
                crash_retries += 1
                if crash_retries > max_retries:
                    degraded = True
                elif retry_backoff > 0:
                    # Deterministic exponential backoff -- no jitter,
                    # so retried runs stay reproducible.
                    time.sleep(min(
                        retry_backoff * 2 ** (crash_retries - 1),
                        RETRY_BACKOFF_CAP))

    group_results = [completed[key] for key in order]

    verdicts: List[Optional[ScenarioVerdict]] = [None] * len(kept_indices)
    session_stats: Dict[str, Dict[str, int]] = {}
    cache_stats = {"hits": 0, "misses": 0}
    for group_key, indexed_verdicts, stats, cache_delta in group_results:
        if stats:
            session_stats[group_key] = stats
        cache_stats["hits"] += cache_delta.get("hits", 0)
        cache_stats["misses"] += cache_delta.get("misses", 0)
        for index, verdict in indexed_verdicts:
            verdicts[positions[index]] = verdict

    assert all(verdict is not None for verdict in verdicts)
    if trace is not None:
        free = sum(1 for verdict in verdicts
                   if verdict is not None and verdict.status == "ok"
                   and verdict.deadlock_free)
        trace.emit("portfolio_end", scenarios=len(verdicts),
                   deadlock_free=free,
                   deadlock_prone=len(verdicts) - free)
        trace.flush()
    store_stats: Dict[str, object] = {}
    if verdict_store is not None:
        store_stats = verdict_store.stats()
        store_stats["replayed_groups"] = store_replayed
    return PortfolioReport(
        verdicts=verdicts,  # type: ignore[arg-type]
        elapsed_seconds=time.perf_counter() - start,
        session_stats=session_stats,
        jobs=report_jobs,
        cache_stats=cache_stats,
        shard=shard,
        recovery={
            "crash_retries": crash_retries,
            "degraded_serial": degraded,
            "group_attempts": {key: attempts[key] for key in order
                               if key in attempts},
        },
        store_stats=store_stats)


def standard_matrix(mesh_sizes: Iterable[int] = (3, 4),
                    ring_sizes: Iterable[int] = (4,),
                    buffer_capacity: int = 2) -> List[str]:
    """The standard sweep as matrix terms (see :func:`standard_portfolio`).

    One wormhole term plus the paper's virtual-cut-through pair per mesh
    size, then the deadlock-free and deadlock-prone rings -- the exact
    scenario order of the historical hand-built list, now declaratively.
    The mesh term sweeps *every* routing token the ``mesh`` kind
    registers, so a newly registered routing automatically joins the
    standard portfolio.
    """
    from repro.core.spec import spec_registry

    routing_list = ",".join(spec_registry().entry("mesh").routings)
    terms: List[str] = []
    for size in mesh_sizes:
        terms.append(f"mesh:{size}x{size}, routing=[{routing_list}], "
                     f"switching=wormhole, buffers={buffer_capacity}")
        terms.append(f"mesh:{size}x{size}, routing=xy, switching=vct, "
                     f"buffers={buffer_capacity}")
    for size in ring_sizes:
        terms.append(f"ring:{size}, routing=chain, "
                     f"buffers={buffer_capacity}")
        # The clockwise counterexample keeps its historical single-buffer
        # instantiation (the deadlock verdict is capacity-independent).
        terms.append(f"ring:{size}, routing=clockwise, buffers=1")
    return terms


def standard_portfolio(mesh_sizes: Iterable[int] = (3, 4),
                       ring_sizes: Iterable[int] = (4,),
                       buffer_capacity: int = 2) -> List[Scenario]:
    """The library's standard sweep: every routing function on square
    meshes (wormhole and virtual cut-through for the paper's pair), plus
    the deadlock-free and deadlock-prone ring instantiations.

    Built by expanding :func:`standard_matrix` through the declarative
    spec layer -- the same construction path as ``repro batch --matrix``.
    """
    return scenarios_from_specs(expand_matrix(standard_matrix(
        mesh_sizes=mesh_sizes, ring_sizes=ring_sizes,
        buffer_capacity=buffer_capacity)))


def vc_escape_matrix(mesh_sizes: Iterable[int] = (3,),
                     torus_sizes: Iterable[int] = (4,),
                     vc_counts: Sequence[int] = (1, 2, 4),
                     buffer_capacity: int = 2) -> List[str]:
    """The VC escape sweep as matrix terms (see :func:`vc_escape_portfolio`)."""
    vcs = ",".join(str(count) for count in vc_counts)
    terms: List[str] = []
    for size in mesh_sizes:
        terms.append(f"vc-mesh:{size}x{size}, vcs=[{vcs}], "
                     f"buffers={buffer_capacity}")
    for size in torus_sizes:
        terms.append(f"vc-torus:{size}x{size}, vcs=[{vcs}], "
                     f"buffers={buffer_capacity}")
    return terms


def vc_escape_portfolio(mesh_sizes: Iterable[int] = (3,),
                        torus_sizes: Iterable[int] = (4,),
                        vc_counts: Sequence[int] = (1, 2, 4),
                        buffer_capacity: int = 2) -> List[Scenario]:
    """The virtual-channel escape sweep: one group per topology.

    For every mesh size, fully-adaptive minimal routing with an XY escape
    VC at each VC count; for every torus size, dimension-order routing with
    a dateline escape pair (plus an adaptive class from 3 VCs up).  All VC
    counts of one topology share a group (their channel universes nest), so
    a cross-check exercises one session universe across growing VC
    counts: the 1-VC verdict is deadlock-prone, the multi-VC verdicts are
    proved free by the escape condition.
    """
    return scenarios_from_specs(expand_matrix(vc_escape_matrix(
        mesh_sizes=mesh_sizes, torus_sizes=torus_sizes,
        vc_counts=vc_counts, buffer_capacity=buffer_capacity)))
