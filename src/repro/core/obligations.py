"""The proof obligations (C-1) ... (C-5) and their discharge engine.

The GeNoC methodology characterises the constituents by proof obligations;
once the obligations are discharged for an instantiation, the three global
theorems follow *without* looking at the constituent definitions again
(paper Fig. 2).  This module provides one checker per obligation, each
returning an :class:`ObligationResult` that records whether the obligation
holds, how many elementary checks were performed (the Python analogue of the
"Thms" column of Table I), the counterexamples found, and the wall-clock time
spent (the analogue of the "CPU" column).

For bounded networks the obligations are decidable and the checkers are
exact (exhaustive enumeration).  The parametric argument for (C-3) on the
HERMES mesh (the paper's flows proof, Fig. 4) is provided separately by
:mod:`repro.hermes.flows` as a rank-certificate check and is reported through
the same :class:`ObligationResult` interface.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.checking.graphs import DirectedGraph, find_cycle_dfs
from repro.core.configuration import Configuration
from repro.core.constituents import (
    InjectionMethod,
    RoutingFunction,
    SwitchingPolicy,
)
from repro.core.dependency import (
    DependencyGraphSpec,
    routing_dependency_graph,
)
from repro.core.errors import ObligationViolation
from repro.core.measure import Measure
from repro.network.port import Port

if TYPE_CHECKING:
    from repro.core.witness import WitnessDestination


@dataclass
class ObligationResult:
    """Outcome of discharging one proof obligation."""

    name: str
    holds: bool
    #: Number of elementary checks performed (case distinctions, edges
    #: examined, simulation steps verified, ...).
    checks: int = 0
    #: Human-readable descriptions of the counterexamples found (empty when
    #: the obligation holds).
    counterexamples: List[str] = field(default_factory=list)
    #: Wall-clock seconds spent discharging the obligation.
    elapsed_seconds: float = 0.0
    #: Additional details (per-method verdicts, statistics, ...).
    details: Dict[str, object] = field(default_factory=dict)

    def raise_if_violated(self) -> None:
        if not self.holds:
            summary = "; ".join(self.counterexamples[:3]) or "violated"
            raise ObligationViolation(self.name, summary)

    def __str__(self) -> str:
        status = "holds" if self.holds else "VIOLATED"
        return (f"{self.name}: {status} "
                f"({self.checks} checks, {self.elapsed_seconds:.3f}s)")


def _timed(function: Callable[[], Tuple[bool, int, List[str], Dict[str, object]]],
           name: str) -> ObligationResult:
    start = time.perf_counter()
    holds, checks, counterexamples, details = function()
    elapsed = time.perf_counter() - start
    return ObligationResult(name=name, holds=holds, checks=checks,
                            counterexamples=counterexamples,
                            elapsed_seconds=elapsed, details=details)


# ---------------------------------------------------------------------------
# (C-1): every routing hop (for reachable destinations) is a declared edge
# ---------------------------------------------------------------------------

def check_c1(routing: RoutingFunction, spec: DependencyGraphSpec,
             destinations: Optional[Sequence[Port]] = None,
             max_counterexamples: int = 10) -> ObligationResult:
    """(C-1): ``∀ s, d, p ∈ R(s, d) . s R d ⟹ (s, p) ∈ E_dep``."""

    def run() -> Tuple[bool, int, List[str], Dict[str, object]]:
        topology = routing.topology
        dests = list(destinations) if destinations is not None \
            else routing.destinations()
        checks = 0
        counterexamples: List[str] = []
        for source in topology.ports:
            declared = spec.edges_from(source)
            for destination in dests:
                if source == destination:
                    continue
                if not routing.reachable(source, destination):
                    continue
                for hop in routing.next_hops(source, destination):
                    checks += 1
                    if hop not in declared:
                        if len(counterexamples) < max_counterexamples:
                            counterexamples.append(
                                f"R({source}, {destination}) = {hop} but "
                                f"({source}, {hop}) is not a declared edge")
        return (not counterexamples, checks, counterexamples,
                {"destinations": len(dests)})

    return _timed(run, "C-1")


# ---------------------------------------------------------------------------
# (C-2): every declared edge has a witness destination
# ---------------------------------------------------------------------------

def check_c2(routing: RoutingFunction, spec: DependencyGraphSpec,
             witness_destination: Optional[WitnessDestination] = None,
             max_counterexamples: int = 10) -> ObligationResult:
    """(C-2): ``∀ (p0, p1) ∈ E_dep ∃ d . p0 R d ∧ p1 ∈ R(p0, d)``.

    When a ``witness_destination`` function is supplied (the paper's
    ``find_dest``), it is used directly and the obligation additionally
    checks that the witness it produces is correct.  Otherwise the checker
    falls back to enumerating all destinations.
    """

    def run() -> Tuple[bool, int, List[str], Dict[str, object]]:
        checks = 0
        counterexamples: List[str] = []
        used_fallback = 0
        for source, target in spec.edges():
            checks += 1
            if witness_destination is not None:
                destination = witness_destination(source, target)
                if (destination is not None
                        and routing.reachable(source, destination)
                        and target in routing.next_hops(source, destination)):
                    continue
                # The declared witness failed; fall back to enumeration so the
                # counterexample message can distinguish "no witness at all"
                # from "the find_dest witness is wrong".
            found = None
            for destination in routing.destinations():
                if source == destination:
                    continue
                if not routing.reachable(source, destination):
                    continue
                if target in routing.next_hops(source, destination):
                    found = destination
                    break
            if found is None:
                if len(counterexamples) < max_counterexamples:
                    counterexamples.append(
                        f"edge ({source}, {target}) has no witness destination")
            elif witness_destination is not None:
                used_fallback += 1
                if len(counterexamples) < max_counterexamples:
                    counterexamples.append(
                        f"find_dest gave a wrong witness for ({source}, {target}); "
                        f"enumeration found {found}")
        return (not counterexamples, checks, counterexamples,
                {"edges": checks, "fallback_witnesses": used_fallback})

    return _timed(run, "C-2")


# ---------------------------------------------------------------------------
# (C-3): the declared dependency graph has no cycle
# ---------------------------------------------------------------------------

def _certified_acyclicity(graph: DirectedGraph, what: str
                          ) -> Tuple[bool, List[str], Dict[str, object]]:
    """The certified DFS on ``graph``: whether it is acyclic, the cycle as
    a counterexample and the ``certificate`` the checker accepted (the
    numbering or the cycle) with the cycle in the details."""
    cycle = find_cycle_dfs(graph).cycle
    if cycle is None:
        return True, [], {"certificate": "numbering"}
    return (False, [f"{what}: " + " -> ".join(str(p) for p in cycle)],
            {"certificate": "cycle", "cycle": [str(p) for p in cycle]})


def _graph_acyclicity(name: str, build: Callable[[], DirectedGraph]
                      ) -> ObligationResult:
    """The certified DFS on the graph ``build`` makes, one check per edge:
    the checker reads every edge once to accept the search's numbering
    (or its cycle)."""

    def run() -> Tuple[bool, int, List[str], Dict[str, object]]:
        graph = build()
        holds, counterexamples, found = _certified_acyclicity(
            graph, "dependency cycle")
        return (holds, graph.edge_count, counterexamples,
                {"vertices": graph.vertex_count, "edges": graph.edge_count,
                 **found})

    return _timed(run, name)


def check_c3(spec: DependencyGraphSpec) -> ObligationResult:
    """(C-3): ``∀ P' ⊆ P . ¬ cycle_dep(P')`` -- the graph is acyclic."""
    return _graph_acyclicity("C-3", spec.to_graph)


def check_c3_routing_induced(routing: RoutingFunction) -> ObligationResult:
    """(C-3) applied to the routing-induced graph instead of the declared one.

    Useful for routing functions that do not come with a declared dependency
    graph (the baselines of :mod:`repro.routing`).
    """
    return _graph_acyclicity("C-3(induced)",
                             lambda: routing_dependency_graph(routing))


# ---------------------------------------------------------------------------
# (V-1) and (V-2): the VC-granular (Duato-style) deadlock obligations
# ---------------------------------------------------------------------------

def check_v1_escape_coverage(relation,
                             max_counterexamples: int = 10,
                             ) -> ObligationResult:
    """(V-1): every waiting channel has the escape class to fall back on.

    For a VC routing relation with a separated escape class this checks,
    over every reachable ``(channel, destination)`` pair where a header can
    wait (an in-channel or injection channel of a non-destination node):

    * at least one next hop is an escape-class channel (*coverage* -- a
      blocked packet can always request the escape network), and
    * if the channel itself is escape-class, **all** its next hops are
      escape-class (*closure* -- "once on escape, stay on escape", which
      keeps waiting chains rooted in escape channels inside the acyclic
      escape subgraph).

    Out-channels need no coverage: under the credit-based allocation of
    :class:`~repro.switching.wormhole.VCWormholeSwitching` a header only
    enters a cardinal out-channel together with a guaranteed slot in the
    downstream in-channel, so headers never *wait* inside out-channels --
    every waiting point is a VC-allocation point where the escape class is
    on offer.

    In the degenerate shared case (adaptive and escape on the same VCs,
    e.g. ``num_vcs = 1``) closure is vacuous and freedom falls back to
    whole-graph acyclicity, which (V-2) then checks.
    """

    def run() -> Tuple[bool, int, List[str], Dict[str, object]]:
        from repro.network.vc import port_of
        from repro.routing.base import route_table

        table = route_table(relation)
        channels, destinations = table.ports, table.destinations
        escape = [relation.is_escape_resource(c) for c in channels]
        target_nodes = [port_of(d).node for d in destinations]
        separated = relation.classes_separated
        checks = 0
        counterexamples: List[str] = []
        #: Escape-class hops per hop tuple (the table shares equal tuples).
        escape_counts: Dict[Tuple[int, ...], int] = {}
        for p, channel in enumerate(channels):
            port = port_of(channel)
            if not port.is_input:
                continue  # headers wait at in-channels only (credits)
            row = table.hops[p * table.width:(p + 1) * table.width]
            node = port.node
            for d, hops in enumerate(row):
                # Unreachable pairs and ejection at the target node (always
                # possible) need no coverage.
                if hops is None or node == target_nodes[d]:
                    continue
                checks += 1
                escapes = escape_counts.get(hops)
                if escapes is None:
                    escapes = escape_counts[hops] = sum(
                        [escape[q] for q in hops])
                if not escapes:
                    if len(counterexamples) < max_counterexamples:
                        counterexamples.append(
                            f"{channel} has no escape-class hop towards "
                            f"{destinations[d]}")
                elif (separated and escape[p] and not port.is_local
                        and escapes != len(hops)):
                    if len(counterexamples) < max_counterexamples:
                        counterexamples.append(
                            f"escape channel {channel} may leave the escape "
                            f"class towards {destinations[d]}")
        return (not counterexamples, checks, counterexamples,
                {"escape_vcs": list(relation.escape_vcs),
                 "classes_separated": separated})

    return _timed(run, "V-1")


def check_v2_escape_acyclicity(relation,
                               graph: Optional[DirectedGraph] = None,
                               ) -> ObligationResult:
    """(V-2): the escape-class subgraph of the channel graph is acyclic.

    With a separated escape class this is the acyclicity half of the
    Duato-style condition; in the degenerate shared case the escape class
    spans every channel and the check *is* the paper's Theorem 1 condition
    on the full ``(port, vc)`` dependency graph.
    """

    def run() -> Tuple[bool, int, List[str], Dict[str, object]]:
        from repro.core.dependency import (
            channel_dependency_graph,
            class_subgraph,
        )

        full = graph if graph is not None \
            else channel_dependency_graph(relation)
        escape = class_subgraph(full, relation.escape_vcs)
        holds, counterexamples, found = _certified_acyclicity(
            escape, "escape-class dependency cycle")
        details: Dict[str, object] = {
            "channels": full.vertex_count,
            "edges": full.edge_count,
            "escape_channels": escape.vertex_count,
            "escape_edges": escape.edge_count,
            **found,
        }
        return holds, escape.edge_count, counterexamples, details

    return _timed(run, "V-2")


# ---------------------------------------------------------------------------
# (C-4): the injection method is the identity
# ---------------------------------------------------------------------------

def check_c4(injection: InjectionMethod,
             configurations: Sequence[Configuration]) -> ObligationResult:
    """(C-4): ``I(σ) = σ`` on every supplied configuration.

    The obligation is checked extensionally on a family of configurations
    (the benchmark harness passes the initial configurations of all its
    workloads): injecting must change neither the pending travels, nor the
    arrived travels, nor any port buffer.
    """

    def run() -> Tuple[bool, int, List[str], Dict[str, object]]:
        checks = 0
        counterexamples: List[str] = []
        for index, config in enumerate(configurations):
            checks += 1
            injected = injection.inject(config)
            same_travels = ([t.travel_id for t in injected.travels]
                            == [t.travel_id for t in config.travels])
            same_arrived = ([t.travel_id for t in injected.arrived]
                            == [t.travel_id for t in config.arrived])
            same_state = (injected.state.occupancy_map()
                          == config.state.occupancy_map())
            if not (same_travels and same_arrived and same_state):
                counterexamples.append(
                    f"I(σ) ≠ σ for configuration #{index}")
        return (not counterexamples, checks, counterexamples, {})

    return _timed(run, "C-4")


# ---------------------------------------------------------------------------
# (C-5): the termination measure decreases on every non-deadlocked step
# ---------------------------------------------------------------------------

def check_c5(switching: SwitchingPolicy, measure: Measure,
             configurations: Sequence[Configuration],
             max_steps: int = 100_000,
             strict: bool = True) -> ObligationResult:
    """(C-5): ``σ.T ≠ ∅ ∧ ¬Ω(σ) ⟹ μ(S(R(σ))) < μ(σ)``.

    The obligation is discharged by running the switching policy on each
    supplied (already-routed) configuration and checking the measure after
    every step.  With ``strict=False`` only non-increase is required, which
    is what the paper's coarser route-length measure satisfies in the
    flit-accurate model (see :mod:`repro.core.measure`).
    """
    from repro.core.deadlock import is_deadlock

    def run() -> Tuple[bool, int, List[str], Dict[str, object]]:
        checks = 0
        counterexamples: List[str] = []
        total_steps = 0
        for index, initial in enumerate(configurations):
            config = initial.copy()
            previous = measure(config)
            steps = 0
            while config.travels and not is_deadlock(config, switching):
                if steps >= max_steps:
                    counterexamples.append(
                        f"configuration #{index}: exceeded {max_steps} steps")
                    break
                config = switching.step(config)
                current = measure(config)
                checks += 1
                steps += 1
                violated = (current >= previous) if strict \
                    else (current > previous)
                if violated:
                    relation = "<" if strict else "<="
                    counterexamples.append(
                        f"configuration #{index}, step {steps}: measure went "
                        f"from {previous} to {current} (expected strictly "
                        f"{relation} previous)")
                    break
                previous = current
            total_steps += steps
        return (not counterexamples, checks, counterexamples,
                {"total_steps": total_steps,
                 "configurations": len(configurations)})

    return _timed(run, "C-5")
