"""Exception hierarchy of the GeNoC core."""

from __future__ import annotations


class GeNoCError(Exception):
    """Base class of all GeNoC errors."""


class RoutingError(GeNoCError):
    """Raised when a routing function cannot produce a route.

    Typical causes: the destination is not reachable from the source, the
    routing function does not terminate within the hop bound, or it produced
    a port that does not exist in the topology.
    """


class SwitchingError(GeNoCError):
    """Raised on inconsistent switching-policy state transitions."""


class InjectionError(GeNoCError):
    """Raised when the injection method cannot inject a travel."""


class SpecificationError(GeNoCError):
    """Raised when an instantiation violates a structural requirement
    (e.g. a dependency-graph edge mentions a non-existent port)."""


class ObligationViolation(GeNoCError):
    """Raised (optionally) when a proof obligation does not hold.

    The obligation checkers normally *return* a result object with
    counterexamples; this exception is used by the strict discharge mode of
    the verification pipeline.
    """

    def __init__(self, obligation: str, message: str) -> None:
        super().__init__(f"{obligation}: {message}")
        self.obligation = obligation


class SolverTimeout(Exception):
    """A group's time budget expired.

    Raised by the portfolio driver when a group's deadline has passed at
    one of its checkpoints, before each build and before each scenario
    (and by an injected ``timeout`` fault).  A running scenario is never
    cut mid-decision: the graph search and the Kahn peel of the
    cross-check are linear, so the checkpoints bound the overrun.
    """

    def __init__(self, reason: str = "group budget exhausted") -> None:
        super().__init__(reason)
        self.reason = reason
