"""Randomized-topology fuzz campaign over the deadlock deciders.

The repo decides deadlock freedom three independent ways -- the Kahn
session (:mod:`repro.core.deadlock`), the certified DFS of
:mod:`repro.checking.graphs` (the batch verdict, whose certificate the
checker re-checks) and, at small sizes, a brute-force self-reachability
sweep defined right here -- and can additionally run any verdict through
the GeNoC simulation engine.  This module points all of
them at *randomized* instances: seeded irregular scenario specs (topology
kind, dimensions, routing token, VC count and fault set all drawn from a
deterministic per-seed RNG) whose verdicts must agree decider by decider.

Disagreement taxonomy (what the campaign reports):

* ``session-vs-explicit`` -- the Kahn session's verdict, or its set of
  single-edge escape repairs
  (:meth:`~repro.core.deadlock.DeadlockQuerySession.escape_edges_for`),
  differs from the DFS cycle search on the same graph: a peel or
  cycle-walk bug.
* ``certificate`` -- the checker
  (:func:`~repro.checking.graphs.check_certificate`) rejects the DFS's
  numbering, cycle or escape-edge evidence: a search bug, named by the
  failed check.
* ``brute-vs-explicit`` -- the quadratic self-reachability sweep differs
  from the DFS: the clever algorithms miss a cycle or invent one.
* ``sim-vs-verdict`` -- an instance *proved* deadlock-free deadlocks in
  simulation: the model and the prover disagree about the design (the
  hard direction; a *prone* verdict without a simulated stall is fine --
  prone means "some adversarial workload exists", not "every workload
  stalls" -- so those are only recorded).

Every draw is deterministic in the campaign seed (CRC-32 keyed RNGs, no
salted ``hash()``), so a failing seed replays exactly.
"""

from __future__ import annotations

import random
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import SpecificationError
from repro.core.spec import ScenarioSpec

#: Mesh routing tokens the fuzzer draws from (the full registered set).
FUZZ_MESH_ROUTINGS = ("xy", "yx", "west-first", "north-last",
                      "negative-first", "odd-even", "adaptive", "zigzag")
FUZZ_RING_ROUTINGS = ("chain", "clockwise")
#: Scenario kinds with their draw weights: plain meshes dominate (largest
#: routing variety), the VC kinds keep the escape condition in the mix.
FUZZ_KINDS = (("mesh", 4), ("ring", 2), ("vc-mesh", 2), ("vc-torus", 1),
              ("vc-ring", 1))


def _fuzz_rng(campaign_seed: int, index: int) -> random.Random:
    key = f"fuzz:{campaign_seed}:{index}"
    return random.Random(zlib.crc32(key.encode("utf-8")))


def _base_topology(kind: str, dims: Tuple[int, ...]):
    """The bare (healthy) topology of a kind, for fault feasibility."""
    from repro.network.mesh import Mesh2D
    from repro.network.ring import Ring
    from repro.network.torus import Torus2D

    if kind in ("mesh", "vc-mesh"):
        return Mesh2D(dims[0], dims[1])
    if kind == "vc-torus":
        return Torus2D(dims[0], dims[1])
    return Ring(dims[0], bidirectional=True)


def _feasible_faults(kind: str, dims: Tuple[int, ...], faults: int,
                     fault_seed: int) -> int:
    """The largest ``k <= faults`` the sampler can place on this fabric.

    Mirrors the builders' sampling calls exactly (router kills are only
    drawn on meshes and tori); tiny fabrics may not admit any fault
    without disconnecting, in which case the draw degrades to ``0``.
    """
    from repro.network.faults import sample_fault_spec

    allow_routers = kind in ("mesh", "vc-mesh", "vc-torus")
    topology = _base_topology(kind, dims)
    while faults > 0:
        try:
            sample_fault_spec(topology, faults, fault_seed,
                              allow_routers=allow_routers)
            return faults
        except SpecificationError:
            faults -= 1
    return 0


def generate_fuzz_specs(count: int,
                        max_size: Tuple[int, int] = (3, 3),
                        campaign_seed: int = 2010,
                        max_faults: int = 2) -> List[ScenarioSpec]:
    """``count`` seeded irregular scenario specs, deterministically.

    Instance ``i`` of campaign ``s`` is always the same spec; the sequence
    deliberately mixes kinds, dimensions, routing tokens, VC counts and
    fault sets.  ``max_size`` bounds mesh/torus dimensions (rings are
    bounded by the corresponding perimeter).
    """
    max_w, max_h = max_size
    if max_w < 2 or max_h < 2:
        raise SpecificationError("fuzz max size must be at least 2x2")
    weighted = [kind for kind, weight in FUZZ_KINDS for _ in range(weight)]
    specs: List[ScenarioSpec] = []
    for index in range(count):
        rng = _fuzz_rng(campaign_seed, index)
        kind = rng.choice(weighted)
        routing: Optional[str] = None
        num_vcs = 1
        if kind in ("mesh", "vc-mesh", "vc-torus"):
            width = rng.randint(2, max_w)
            height = rng.randint(2, max_h)
            dims: Tuple[int, ...] = (width, height)
        else:
            dims = (rng.randint(3, max(4, max_w + max_h)),)
        if kind == "mesh":
            routing = rng.choice(FUZZ_MESH_ROUTINGS)
        elif kind == "ring":
            routing = rng.choice(FUZZ_RING_ROUTINGS)
        else:
            num_vcs = rng.randint(1, 3)
        faults = rng.randint(0, max_faults)
        fault_seed = rng.randint(0, 10_000)
        if faults:
            faults = _feasible_faults(kind, dims, faults, fault_seed)
        spec = ScenarioSpec(kind=kind, dims=dims, routing=routing,
                            num_vcs=num_vcs, buffers=rng.choice((1, 2)),
                            faults=faults, fault_seed=fault_seed)
        specs.append(spec.normalized())
    return specs


# ---------------------------------------------------------------------------
# The brute-force decider
# ---------------------------------------------------------------------------

def brute_force_acyclic(edges: Sequence[Tuple],
                        max_vertices: int = 400) -> Optional[bool]:
    """Acyclicity by per-vertex forward self-reachability, or ``None``.

    The dumbest decider that can be written independently of the DFS
    colouring and the Kahn peel: for every vertex, walk the forward
    closure of its successors and ask whether the vertex shows up again.
    Quadratic (``O(V * E)``), which is exactly why it is trustworthy -- and
    why it refuses graphs beyond ``max_vertices`` (returning ``None``).
    """
    successors: Dict[object, List[object]] = {}
    for source, target in edges:
        successors.setdefault(source, []).append(target)
        successors.setdefault(target, [])
    if len(successors) > max_vertices:
        return None
    for start in successors:
        frontier = list(successors[start])
        seen = set(frontier)
        while frontier:
            node = frontier.pop()
            if node == start:
                return False
            for following in successors[node]:
                if following not in seen:
                    seen.add(following)
                    frontier.append(following)
    return True


# ---------------------------------------------------------------------------
# Campaign results
# ---------------------------------------------------------------------------

@dataclass
class FuzzVerdict:
    """The cross-validated verdict of one fuzzed instance."""

    scenario: str
    instance: str
    condition: str                      #: "theorem1" | "vc-escape"
    deadlock_free: bool                 #: the Kahn session's verdict
    session_free: bool
    explicit_free: bool
    brute_free: Optional[bool]          #: None when the graph was too big
    edges: int
    sim_outcome: Optional[str]          #: "evacuated" | "deadlocked" | None
    disagreements: List[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    spec: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "instance": self.instance,
            "condition": self.condition,
            "deadlock_free": self.deadlock_free,
            "session_free": self.session_free,
            "explicit_free": self.explicit_free,
            "brute_free": self.brute_free,
            "edges": self.edges,
            "sim_outcome": self.sim_outcome,
            "disagreements": list(self.disagreements),
            "elapsed_ms": round(self.elapsed_seconds * 1e3, 2),
            "spec": self.spec,
        }


@dataclass
class FuzzReport:
    """The outcome of one :func:`run_fuzz_campaign`."""

    campaign_seed: int
    max_size: Tuple[int, int]
    verdicts: List[FuzzVerdict] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def disagreements(self) -> List[str]:
        return [f"{verdict.scenario}: {reason}"
                for verdict in self.verdicts
                for reason in verdict.disagreements]

    @property
    def ok(self) -> bool:
        return not self.disagreements

    @property
    def free_count(self) -> int:
        return sum(1 for v in self.verdicts if v.deadlock_free)

    @property
    def prone_count(self) -> int:
        return sum(1 for v in self.verdicts if not v.deadlock_free)

    @property
    def brute_checked(self) -> int:
        return sum(1 for v in self.verdicts if v.brute_free is not None)

    @property
    def simulated(self) -> int:
        return sum(1 for v in self.verdicts if v.sim_outcome is not None)

    def to_json_dict(self) -> dict:
        return {
            "campaign_seed": self.campaign_seed,
            "max_size": list(self.max_size),
            "instances": len(self.verdicts),
            "deadlock_free": self.free_count,
            "deadlock_prone": self.prone_count,
            "brute_checked": self.brute_checked,
            "simulated": self.simulated,
            "disagreements": self.disagreements,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "verdicts": [v.to_json_dict() for v in self.verdicts],
        }

    def format_summary(self) -> str:
        lines = [
            f"fuzz campaign: {len(self.verdicts)} instances "
            f"(seed {self.campaign_seed}, "
            f"max {self.max_size[0]}x{self.max_size[1]}), "
            f"{self.free_count} deadlock-free, "
            f"{self.prone_count} deadlock-prone, "
            f"{self.brute_checked} brute-force checked, "
            f"{self.simulated} simulated, "
            f"{self.elapsed_seconds:.2f}s",
        ]
        if self.ok:
            lines.append("all deciders agree on every instance")
        else:
            lines.append(f"{len(self.disagreements)} DISAGREEMENTS:")
            lines.extend(f"  {entry}" for entry in self.disagreements)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The campaign driver
# ---------------------------------------------------------------------------

def _decide_instance(instance, brute_force: bool,
                     max_brute_vertices: int) -> Tuple[str, bool, bool,
                                                       Optional[bool], int,
                                                       List[str]]:
    """All non-simulation deciders on one instance, plus disagreements."""
    from repro.checking.graphs import (
        ReprRanks,
        check_certificate,
        cycle_and_escape_edges,
    )
    from repro.core.deadlock import DeadlockQuerySession
    from repro.core.dependency import dependency_id_graph
    from repro.routing.escape import EscapeChannelRouting

    disagreements: List[str] = []
    relation = instance.routing
    graph = dependency_id_graph(relation)
    if isinstance(relation, EscapeChannelRouting):
        from repro.core.obligations import check_v1_escape_coverage
        from repro.network.vc import vc_of

        # (V-2) restricted to the escape class is what every decider
        # answers; (V-1) coverage is shared (a plain enumeration).
        condition = "vc-escape"
        covered = check_v1_escape_coverage(relation).holds
        query = graph.restrict([vc_of(port) in relation.escape_vcs
                                for port in graph.vertices])
    else:
        condition = "theorem1"
        covered = True
        query = graph
    core, escape, certificate = cycle_and_escape_edges(
        query, ReprRanks().ranks(graph.vertices))
    rejected = check_certificate(query.successors, certificate,
                                 graph.vertices)
    if rejected is not None:
        disagreements.append(f"certificate: {rejected}")
    explicit = covered and not core
    query_edges = query.edges()
    session = DeadlockQuerySession(graph.to_graph(), name=relation.name())
    peeled = covered and session.is_deadlock_free_edges(query_edges)
    fixes = set() if peeled else set(session.escape_edges_for(query_edges))
    brute_acyclic = (brute_force_acyclic(query_edges,
                                         max_vertices=max_brute_vertices)
                     if brute_force else None)
    brute = (None if brute_acyclic is None
             else covered and brute_acyclic)

    if peeled != explicit:
        disagreements.append(
            f"session-vs-explicit: session={peeled} explicit={explicit}")
    elif fixes != set(escape):
        disagreements.append(
            f"session-vs-explicit: {len(fixes)} session escape edges, "
            f"{len(escape)} by graph search")
    if brute is not None and brute != explicit:
        disagreements.append(
            f"brute-vs-explicit: brute={brute} explicit={explicit}")
    return condition, peeled, explicit, brute, graph.edge_count, disagreements


def _simulate_instance(instance, deadlock_free: bool, index: int,
                       max_ports: int,
                       max_steps: int) -> Tuple[Optional[str], List[str]]:
    """The simulation facet: proved-free instances must drain."""
    from repro.simulation.simulator import Simulator
    from repro.simulation.workloads import uniform_random_traffic

    if len(instance.topology.ports) > max_ports:
        return None, []
    workload = uniform_random_traffic(instance, num_messages=8, num_flits=3,
                                      seed=2010 + index)
    result = Simulator(instance, max_steps=max_steps).run(workload)
    genoc = result.genoc_result
    outcome = "deadlocked" if genoc.deadlocked else (
        "evacuated" if genoc.evacuated else "timeout")
    disagreements: List[str] = []
    if deadlock_free and genoc.deadlocked:
        disagreements.append(
            f"sim-vs-verdict: proved deadlock-free but workload "
            f"{workload.name} deadlocked")
    return outcome, disagreements


def run_fuzz_campaign(count: int = 200,
                      max_size: Tuple[int, int] = (3, 3),
                      campaign_seed: int = 2010,
                      brute_force: bool = True,
                      simulate: bool = True,
                      max_brute_vertices: int = 400,
                      sim_max_ports: int = 350,
                      sim_max_steps: int = 2000,
                      progress: Optional[Callable[[str], None]] = None
                      ) -> FuzzReport:
    """Fuzz ``count`` randomized instances and cross-validate every verdict.

    Builds each seeded spec from :func:`generate_fuzz_specs`, decides it
    with the Kahn session, the certified DFS and (while the graph is
    small enough) the brute-force sweep, then -- for simulable
    sizes -- runs a seeded random workload through the GeNoC engine.  Any
    disagreement is collected into the report (:attr:`FuzzReport.ok`);
    nothing raises, so a CI lane can print the full summary before
    failing.
    """
    start = time.perf_counter()
    report = FuzzReport(campaign_seed=campaign_seed, max_size=max_size)
    specs = generate_fuzz_specs(count, max_size=max_size,
                                campaign_seed=campaign_seed)
    for index, spec in enumerate(specs):
        instance_start = time.perf_counter()
        instance = spec.build()
        condition, peeled, explicit, brute, edge_count, disagreements = \
            _decide_instance(instance, brute_force, max_brute_vertices)
        sim_outcome: Optional[str] = None
        if simulate:
            sim_outcome, sim_disagreements = _simulate_instance(
                instance, deadlock_free=peeled and explicit, index=index,
                max_ports=sim_max_ports, max_steps=sim_max_steps)
            disagreements.extend(sim_disagreements)
        verdict = FuzzVerdict(
            scenario=spec.scenario_name(),
            instance=instance.name,
            condition=condition,
            deadlock_free=peeled,
            session_free=peeled,
            explicit_free=explicit,
            brute_free=brute,
            edges=edge_count,
            sim_outcome=sim_outcome,
            disagreements=disagreements,
            elapsed_seconds=time.perf_counter() - instance_start,
            spec=spec.to_dict(),
        )
        report.verdicts.append(verdict)
        if progress is not None:
            status = "ok" if verdict.ok else "DISAGREE"
            progress(f"[{index + 1}/{len(specs)}] {verdict.scenario}: "
                     f"{'free' if verdict.deadlock_free else 'prone'} "
                     f"({status})")
    report.elapsed_seconds = time.perf_counter() - start
    return report
