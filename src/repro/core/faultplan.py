"""Deterministic engine fault injection (test-only).

Recovery paths that are only exercised by real crashes are recovery paths
that rot.  A :class:`FaultPlan` lets the tests (and the CI ``fault-smoke``
lane) *schedule* worker failures deterministically: kill this group's
worker on its first attempt, hang that one, raise in a third -- so every
branch of the portfolio engine's fault tolerance (pool rebuild + retry,
watch-loop group timeouts, serial degradation, error verdicts) runs in CI
on every push, not just when the OOM killer happens to visit.

A plan is a mapping from session-group key to a directive::

    mesh-3x3=kill@1; ring-4=timeout

* ``kill``      -- the worker process exits hard (``os._exit``), as an
  OOM kill or segfault would.  Ignored outside a pool worker (the plan
  must never take down the orchestrating process, and the serial
  degradation path is *supposed* to succeed).
* ``hang[:seconds]`` -- the worker sleeps (default 3600 s), simulating a
  wedged solve; only a group/run deadline gets rid of it.  Ignored
  outside a pool worker, like ``kill``.
* ``raise``     -- a deterministic ``RuntimeError`` at group start; the
  group reports structured ``error`` verdicts (both serial and pooled).
* ``timeout``   -- a :class:`~repro.core.errors.SolverTimeout` at group
  start, producing planned ``timeout`` verdicts without any wall-clock
  dependence.

``@n`` limits the directive to the group's first ``n`` attempts (default
1), so a killed group *succeeds on retry* -- the recovered run must then be
verdict-identical to a fault-free one.  ``@*`` means every attempt,
which drives the engine into serial degradation.

Plans enter the engine via the ``_fault_plan=`` keyword of
:func:`~repro.core.portfolio.run_portfolio` or the ``REPRO_FAULT_PLAN``
environment variable (which also reaches ``repro batch`` subprocesses in
CI).  Parsing is strict: a typo in a fault plan must fail the test, not
silently inject nothing.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.errors import SolverTimeout

#: Environment variable carrying a serialized fault plan.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Recognised directive actions.
FAULT_ACTIONS = ("kill", "hang", "raise", "timeout")

#: Exit status of a ``kill`` directive -- distinctive enough to recognise
#: in CI logs, meaningless enough not to collide with Python's own codes.
KILL_EXIT_CODE = 86

#: Sleep of a ``hang`` directive with no explicit duration (seconds).
DEFAULT_HANG_SECONDS = 3600.0


@dataclass(frozen=True)
class FaultDirective:
    """One scheduled failure: what to do and on which attempts."""

    group: str
    action: str
    #: ``hang`` duration in seconds (0 selects the default).
    param: float = 0.0
    #: Inject on attempts 1..attempts; ``None`` means every attempt.
    attempts: Optional[int] = 1

    def applies(self, attempt: int) -> bool:
        """Does this directive fire on the given (1-based) attempt?"""
        return self.attempts is None or attempt <= self.attempts

    def to_text(self) -> str:
        text = f"{self.group}={self.action}"
        if self.action == "hang" and self.param:
            text += f":{self.param:g}"
        if self.attempts is None:
            text += "@*"
        elif self.attempts != 1:
            text += f"@{self.attempts}"
        return text


class FaultPlan:
    """A deterministic schedule of injected engine failures by group."""

    def __init__(self, directives: Dict[str, FaultDirective]) -> None:
        self._directives = dict(directives)

    def __bool__(self) -> bool:
        return bool(self._directives)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FaultPlan)
                and self._directives == other._directives)

    def directive_for(self, group: str,
                      attempt: int) -> Optional[FaultDirective]:
        """The directive firing for ``group`` on this attempt, if any."""
        directive = self._directives.get(group)
        if directive is not None and directive.applies(attempt):
            return directive
        return None

    def to_text(self) -> str:
        """The plan in the parseable ``group=action[:p][@n]`` syntax."""
        return "; ".join(directive.to_text()
                         for directive in self._directives.values())

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse ``group=action[:param][@attempts]; ...`` (strict)."""
        directives: Dict[str, FaultDirective] = {}
        for raw in text.split(";"):
            term = raw.strip()
            if not term:
                continue
            if "=" not in term:
                raise ValueError(
                    f"fault-plan term {term!r} must look like "
                    f"group=action[:param][@attempts]")
            group, spec = (part.strip() for part in term.split("=", 1))
            attempts: Optional[int] = 1
            if "@" in spec:
                spec, attempts_text = (part.strip()
                                       for part in spec.split("@", 1))
                if attempts_text == "*":
                    attempts = None
                else:
                    try:
                        attempts = int(attempts_text)
                    except ValueError:
                        raise ValueError(
                            f"fault-plan attempts must be an integer or "
                            f"'*', got {attempts_text!r}")
                    if attempts < 1:
                        raise ValueError(
                            f"fault-plan attempts must be >= 1, "
                            f"got {attempts}")
            param = 0.0
            if ":" in spec:
                spec, param_text = (part.strip()
                                    for part in spec.split(":", 1))
                try:
                    param = float(param_text)
                except ValueError:
                    raise ValueError(f"fault-plan parameter must be a "
                                     f"number, got {param_text!r}")
            action = spec.strip()
            if action not in FAULT_ACTIONS:
                raise ValueError(f"unknown fault action {action!r}; "
                                 f"expected one of {FAULT_ACTIONS}")
            if not group:
                raise ValueError(f"fault-plan term {term!r} misses the "
                                 f"group key")
            if group in directives:
                raise ValueError(f"duplicate fault-plan group {group!r}")
            directives[group] = FaultDirective(group=group, action=action,
                                               param=param,
                                               attempts=attempts)
        return cls(directives)

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """The plan in :data:`FAULT_PLAN_ENV`, or ``None`` when unset."""
        text = os.environ.get(FAULT_PLAN_ENV, "").strip()
        if not text:
            return None
        return cls.parse(text)


def resolve_fault_plan(plan) -> Optional[FaultPlan]:
    """Normalise a ``_fault_plan=`` argument: plan, text, or env fallback."""
    if plan is None:
        return FaultPlan.from_env()
    if isinstance(plan, FaultPlan):
        return plan
    return FaultPlan.parse(str(plan))


def execute_directive(directive: Optional[Tuple[str, float]],
                      in_worker: bool) -> None:
    """Carry out a shipped ``(action, param)`` directive at group start.

    ``kill`` and ``hang`` only make sense inside a sacrificial pool
    worker; in the orchestrating process (serial runs, and the serial
    degradation path after repeated crashes) they are no-ops -- which is
    exactly what lets a ``kill@*`` plan prove that degradation works.
    ``raise`` and ``timeout`` raise in any process: their recovery story
    is structured verdicts, not process replacement.
    """
    if directive is None:
        return
    action, param = directive
    if action == "kill":
        if in_worker:
            os._exit(KILL_EXIT_CODE)
        return
    if action == "hang":
        if in_worker:
            time.sleep(param if param > 0 else DEFAULT_HANG_SECONDS)
        return
    if action == "raise":
        raise RuntimeError("injected fault: planned worker failure")
    if action == "timeout":
        raise SolverTimeout("injected fault: planned group timeout")
    raise ValueError(f"unknown fault directive action {action!r}")
