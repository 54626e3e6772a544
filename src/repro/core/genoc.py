"""The GeNoC interpreter.

Function ``GeNoC`` (paper Section III-B) recursively applies the composition
of the three constituents to an initial configuration:

* it stops when all messages have reached their destination (``σ.T = ∅``);
* it stops when the current configuration is in deadlock (``Ω(R(I(σ)))``);
* otherwise it applies one switching step and recurses.

This module implements that interpreter iteratively (Python recursion limits
are no place for a 10 000-step simulation), records the evolution of the
termination measure (needed for the empirical discharge of obligation (C-5))
and optionally keeps a trace of intermediate configurations for the
simulator and the visualisation examples.

The specialisation the paper calls ``GeNoC2D`` -- injection and route
computation hoisted out of the recursion because injection is immediate and
XY-routing is deterministic -- corresponds to calling :meth:`GeNoCEngine.run`
once: injection and routing are applied exactly once before the switching
loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.core.configuration import Configuration
from repro.core.constituents import (
    InjectionMethod,
    RoutingFunction,
    SwitchingPolicy,
    is_deadlock,
)
from repro.core.errors import GeNoCError
from repro.core.measure import Measure, flit_hop_measure


@dataclass
class StepRecord:
    """One switching step of a GeNoC run."""

    step: int
    measure: int
    pending: int
    arrived: int
    flits_in_network: int


@dataclass
class GeNoCResult:
    """Outcome of a GeNoC run."""

    final: Configuration
    steps: int
    deadlocked: bool
    measures: List[int] = field(default_factory=list)
    history: List[StepRecord] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def evacuated(self) -> bool:
        """Did every message leave the network (``σ.T = ∅``)?"""
        return self.final.is_finished() and not self.deadlocked

    @property
    def arrived_ids(self) -> List[int]:
        return sorted(t.travel_id for t in self.final.arrived)

    def __str__(self) -> str:
        status = "deadlocked" if self.deadlocked else "evacuated"
        return (f"GeNoCResult({status} after {self.steps} steps, "
                f"{len(self.final.arrived)} arrived, "
                f"{len(self.final.travels)} pending)")


class GeNoCEngine:
    """The generic GeNoC interpreter, parameterised by its constituents."""

    def __init__(self, injection: InjectionMethod, routing: RoutingFunction,
                 switching: SwitchingPolicy,
                 measure: Optional[Measure] = None,
                 max_steps: Optional[int] = None) -> None:
        self.injection = injection
        self.routing = routing
        self.switching = switching
        self.measure: Measure = measure or flit_hop_measure
        self.max_steps = max_steps

    # -- the interpreter ---------------------------------------------------------
    def run(self, config: Configuration,
            on_step: Optional[Callable[[int, Configuration], None]] = None,
            check_invariants: bool = False) -> GeNoCResult:
        """Run GeNoC to evacuation or deadlock.

        The routed configuration is copied once and then advanced in place,
        one switching step at a time; ``config`` itself is not modified.
        A run that reaches ``max_steps`` raises :class:`GeNoCError`.

        Parameters
        ----------
        config:
            The initial configuration ``σ``.
        on_step:
            Optional callback invoked after every switching step with the
            step number and the current configuration (used by the tracer).
            The configuration is the one the next step advances in place:
            a callback copies what it keeps.
        check_invariants:
            When true, the state/progress consistency invariants are checked
            after every step (slow; used by tests).
        """
        start = time.perf_counter()
        current = self.injection.inject(config)
        # Routing shares the network state with its input: copy once here.
        current = self.routing.route_configuration(current).copy()
        if check_invariants:
            current.check_consistency()

        measures: List[int] = [self.measure(current)]
        history: List[StepRecord] = []
        steps = 0
        deadlocked = False

        while True:
            if current.is_finished():
                break
            if is_deadlock(current, self.switching):
                deadlocked = True
                break
            if self.max_steps is not None and steps >= self.max_steps:
                raise GeNoCError(
                    f"GeNoC did not terminate within {self.max_steps} steps; "
                    f"this indicates a violation of obligation (C-5)")
            self.switching.advance(current)
            steps += 1
            if check_invariants:
                current.check_consistency()
            measures.append(self.measure(current))
            history.append(StepRecord(
                step=steps,
                measure=measures[-1],
                pending=len(current.travels),
                arrived=len(current.arrived),
                flits_in_network=current.state.flit_count,
            ))
            if on_step is not None:
                on_step(steps, current)

        elapsed = time.perf_counter() - start
        return GeNoCResult(final=current, steps=steps, deadlocked=deadlocked,
                           measures=measures, history=history,
                           elapsed_seconds=elapsed)

    # -- convenience --------------------------------------------------------------
    def run_to_completion(self, config: Configuration) -> Configuration:
        """The paper's ``GeNoC(σ)``: the final configuration only."""
        return self.run(config).final

    def describe(self) -> dict:
        return {
            "injection": self.injection.name(),
            "routing": self.routing.name(),
            "switching": self.switching.name(),
            "measure": getattr(self.measure, "__name__", str(self.measure)),
        }
