"""The three global GeNoC theorems as executable checkers.

* **Correctness Theorem (CorrThm)** -- every message that reaches a
  destination ``d`` was emitted at a valid source, was destined to ``d`` and
  followed a valid path to ``d``.
* **Deadlock Theorem (DeadThm)** -- the routing function is deadlock-free;
  by Theorem 1 this follows from obligations (C-1)-(C-3).
* **Evacuation Theorem (EvacThm)** -- all injected messages eventually leave
  the network: ``GeNoC(σ).A = σ.T``; by Theorem 2 this follows from (C-4) and
  (C-5).

Each checker has two facets, mirroring the paper's "same model for validation
and simulation":

* a *derivation* facet that concludes the theorem from discharged proof
  obligations (what the ACL2 development does once the user obligations are
  proved), and
* a *runtime-verification* facet that checks the theorem's statement directly
  on concrete GeNoC executions (what simulation gives you).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.configuration import Configuration
from repro.core.genoc import GeNoCResult
from repro.core.instance import NoCInstance
from repro.core.measure import is_strictly_decreasing
from repro.core.travel import Travel

if TYPE_CHECKING:
    # The derivation facets import the obligation checkers when they run:
    # the runtime checks of ``repro simulate`` need none of them.
    from repro.core.obligations import ObligationResult


@dataclass
class TheoremResult:
    """Outcome of checking one global theorem."""

    name: str
    holds: bool
    #: The obligations this verdict was derived from (derivation facet).
    obligations: List[ObligationResult] = field(default_factory=list)
    #: Number of runtime checks performed (runtime-verification facet).
    checks: int = 0
    counterexamples: List[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    details: Dict[str, object] = field(default_factory=dict)

    def __str__(self) -> str:
        status = "holds" if self.holds else "VIOLATED"
        return f"{self.name}: {status} ({self.checks} runtime checks)"


# ---------------------------------------------------------------------------
# Correctness theorem
# ---------------------------------------------------------------------------

def check_correctness(instance: NoCInstance, original: Configuration,
                      result: GeNoCResult) -> TheoremResult:
    """CorrThm: arrived messages were sent, to the right place, along a valid path.

    "Valid path" is checked against both the topology (consecutive route
    ports are either in the same node or joined by a physical link) and the
    routing function (each hop is one the routing function allows for that
    destination).
    """
    start = time.perf_counter()
    original_ids = {travel.travel_id: travel for travel in original.travels}
    counterexamples: List[str] = []
    checks = 0

    for travel in result.final.arrived:
        checks += 1
        # (1) emitted at a valid source: the travel was part of the original T.
        if travel.travel_id not in original_ids:
            counterexamples.append(
                f"arrived travel {travel.travel_id} was never sent")
            continue
        sent = original_ids[travel.travel_id]
        # (2) actually destined to the destination it arrived at.
        if travel.destination != sent.destination:
            counterexamples.append(
                f"travel {travel.travel_id} arrived at {travel.destination} "
                f"but was destined to {sent.destination}")
        if travel.source != sent.source:
            counterexamples.append(
                f"travel {travel.travel_id} source changed from "
                f"{sent.source} to {travel.source}")
        # (3) followed a valid path from source to destination.
        if travel.route is None:
            counterexamples.append(
                f"travel {travel.travel_id} arrived without a route")
            continue
        path_errors = _validate_route(instance, travel)
        counterexamples.extend(path_errors)
        checks += len(travel.route)

    elapsed = time.perf_counter() - start
    return TheoremResult(name="CorrThm", holds=not counterexamples,
                         checks=checks, counterexamples=counterexamples,
                         elapsed_seconds=elapsed,
                         details={"arrived": len(result.final.arrived)})


def _validate_route(instance: NoCInstance, travel: Travel) -> List[str]:
    """Check that a travel's route is a valid path of the instantiation.

    Every port's membership of the topology is checked once, and the
    destination once, before the first hop the routing function is asked
    about (an invalid one raises, as
    :meth:`~repro.core.constituents.RoutingFunction.next_hops` does); each
    hop is checked for physical adjacency and for being allowed by the
    routing function.
    """
    errors: List[str] = []
    route = travel.route or ()
    topology = instance.topology
    routing = instance.routing
    destination = travel.destination
    if not route:
        return [f"travel {travel.travel_id} has an empty route"]
    if route[0] != travel.source:
        errors.append(
            f"travel {travel.travel_id}: route starts at {route[0]}, "
            f"not at its source {travel.source}")
    if route[-1] != destination:
        errors.append(
            f"travel {travel.travel_id}: route ends at {route[-1]}, "
            f"not at its destination {destination}")
    inside = [topology.has_port(port) for port in route]
    checked = False
    for hop, (current, following) in enumerate(zip(route, route[1:])):
        if not (inside[hop] and inside[hop + 1]):
            errors.append(
                f"travel {travel.travel_id}: route port outside the topology")
            continue
        # Physically adjacent: same node, or joined by a link.
        same_node = current.node == following.node
        linked = topology.link_target(current) == following
        if not (same_node or linked):
            errors.append(
                f"travel {travel.travel_id}: {current} -> {following} is not "
                f"a physical adjacency")
        # Allowed by the routing function.
        if not checked:
            routing._require_destination(destination)
            checked = True
        if following not in routing._hops(current, destination):
            errors.append(
                f"travel {travel.travel_id}: hop {current} -> {following} is "
                f"not allowed by {routing.name()} for destination "
                f"{destination}")
    return errors


# ---------------------------------------------------------------------------
# Deadlock theorem
# ---------------------------------------------------------------------------

def check_deadlock_freedom(instance: NoCInstance) -> TheoremResult:
    """DeadThm: derive deadlock freedom from obligations (C-1)-(C-3)."""
    from repro.core.obligations import check_c1, check_c2, check_c3

    start = time.perf_counter()
    if instance.dependency_spec is None:
        raise ValueError(
            f"instance {instance.name!r} has no declared dependency graph; "
            f"cannot apply Theorem 1")
    c1 = check_c1(instance.routing, instance.dependency_spec)
    c2 = check_c2(instance.routing, instance.dependency_spec,
                  instance.witness_destination)
    c3 = check_c3(instance.dependency_spec)
    holds = c1.holds and c2.holds and c3.holds
    counterexamples = c1.counterexamples + c2.counterexamples + c3.counterexamples
    elapsed = time.perf_counter() - start
    return TheoremResult(
        name="DeadThm", holds=holds, obligations=[c1, c2, c3],
        checks=c1.checks + c2.checks + c3.checks,
        counterexamples=counterexamples, elapsed_seconds=elapsed)


def check_deadlock_freedom_vc(relation,
                              graph=None,
                              coverage: Optional["ObligationResult"] = None,
                              ) -> TheoremResult:
    """DeadThm at VC granularity: the Duato-style escape-channel condition.

    For a routing relation over ``(port, vc)`` channels
    (:class:`~repro.routing.escape.EscapeChannelRouting`), deadlock freedom
    follows from

    * **(V-1)** escape coverage/closure -- every channel a header can wait
      at offers an escape-class hop, and escape channels never leave the
      escape class, and
    * **(V-2)** escape acyclicity -- the subgraph of the channel dependency
      graph induced by the escape-class channels is acyclic

    instead of whole-graph acyclicity: the adaptive class may contain
    cycles, a blocked packet escapes them.  With a single VC the two
    classes coincide, (V-2) degenerates to the paper's Theorem 1 condition
    on the full graph and the verdict is the classic single-channel one.
    """
    from repro.core.dependency import channel_dependency_graph
    from repro.core.obligations import (
        check_v1_escape_coverage,
        check_v2_escape_acyclicity,
    )

    start = time.perf_counter()
    if graph is None:
        graph = channel_dependency_graph(relation)
    v1 = coverage if coverage is not None \
        else check_v1_escape_coverage(relation)
    v2 = check_v2_escape_acyclicity(relation, graph=graph)
    holds = v1.holds and v2.holds
    elapsed = time.perf_counter() - start
    return TheoremResult(
        name="DeadThm(vc)", holds=holds, obligations=[v1, v2],
        checks=v1.checks + v2.checks,
        counterexamples=v1.counterexamples + v2.counterexamples,
        elapsed_seconds=elapsed,
        details={
            "num_vcs": relation.num_vcs,
            "escape_vcs": list(relation.escape_vcs),
            "adaptive_vcs": list(relation.adaptive_vcs),
            "classes_separated": relation.classes_separated,
            "channels": graph.vertex_count,
            "edges": graph.edge_count,
        })


def check_no_reachable_deadlock(instance: NoCInstance,
                                travels: Sequence[Travel],
                                capacity: int = 1,
                                max_states: int = 200_000) -> TheoremResult:
    """DeadThm, runtime facet: exhaustively explore all interleavings.

    Uses the explicit-state model checker to confirm that no reachable
    configuration of the given workload is a deadlock.  Exact for small
    workloads; the ``max_states`` bound keeps it tractable.
    """
    from repro.checking.bmc import explore_configuration_space

    start = time.perf_counter()
    search = explore_configuration_space(instance, travels, capacity=capacity,
                                         max_states=max_states)
    elapsed = time.perf_counter() - start
    counterexamples = []
    if search.deadlock_found:
        counterexamples.append(
            f"reachable deadlock after exploring {search.explored} states")
    return TheoremResult(
        name="DeadThm(state-space)", holds=not search.deadlock_found,
        checks=search.explored, counterexamples=counterexamples,
        elapsed_seconds=elapsed,
        details={"explored": search.explored, "complete": search.complete})


# ---------------------------------------------------------------------------
# Evacuation theorem
# ---------------------------------------------------------------------------

def check_evacuation(instance: NoCInstance, original: Configuration,
                     result: GeNoCResult) -> TheoremResult:
    """EvacThm, runtime facet: ``GeNoC(σ).A = σ.T`` for a concrete run.

    Additionally checks that the network state is empty at the end and that
    the termination measure evolved monotonically (strictly decreasing for
    the instance measure).
    """
    start = time.perf_counter()
    counterexamples: List[str] = []
    checks = 0

    sent_ids = sorted(travel.travel_id for travel in original.travels)
    arrived_ids = sorted(travel.travel_id for travel in result.final.arrived)
    checks += 1
    if result.deadlocked:
        counterexamples.append("the run ended in deadlock")
    if arrived_ids != sent_ids:
        missing = sorted(set(sent_ids) - set(arrived_ids))
        extra = sorted(set(arrived_ids) - set(sent_ids))
        counterexamples.append(
            f"GeNoC(σ).A ≠ σ.T: missing {missing}, unexpected {extra}")
    checks += 1
    if not result.final.state.is_empty():
        counterexamples.append(
            f"{result.final.state.total_flits()} flits remain buffered "
            f"after termination")
    checks += len(result.measures)
    if not is_strictly_decreasing(result.measures):
        counterexamples.append("the termination measure did not decrease "
                               "strictly on every step")

    elapsed = time.perf_counter() - start
    return TheoremResult(name="EvacThm", holds=not counterexamples,
                         checks=checks, counterexamples=counterexamples,
                         elapsed_seconds=elapsed,
                         details={"steps": result.steps,
                                  "sent": len(sent_ids),
                                  "arrived": len(arrived_ids)})


def derive_evacuation(instance: NoCInstance,
                      configurations: Sequence[Configuration]) -> TheoremResult:
    """EvacThm, derivation facet: conclude evacuation from (C-4) and (C-5)."""
    from repro.core.obligations import check_c4, check_c5

    start = time.perf_counter()
    routed = [instance.routing.route_configuration(config)
              for config in configurations]
    c4 = check_c4(instance.injection, routed)
    c5 = check_c5(instance.switching, instance.measure, routed)
    holds = c4.holds and c5.holds
    elapsed = time.perf_counter() - start
    return TheoremResult(
        name="EvacThm(derived)", holds=holds, obligations=[c4, c5],
        checks=c4.checks + c5.checks,
        counterexamples=c4.counterexamples + c5.counterexamples,
        elapsed_seconds=elapsed)
