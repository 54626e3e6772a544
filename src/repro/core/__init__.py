"""The generic GeNoC core: the paper's primary contribution.

This package contains the parametric specification framework -- travels,
configurations, the three constituent interfaces, the GeNoC interpreter, the
port dependency graph machinery, the proof obligations (C-1)-(C-5), the
three global theorems (correctness, deadlock freedom, evacuation) and the
end-to-end verification pipeline of Fig. 2.
"""

from repro.core.configuration import (
    Configuration,
    NOT_INJECTED,
    TravelProgress,
    initial_configuration,
)
from repro.core.constituents import (
    IdentityInjection,
    InjectionMethod,
    RoutingFunction,
    SwitchingPolicy,
)
from repro.core.deadlock import (
    DeadlockAnalysis,
    DeadlockQuerySession,
    analyse_deadlock,
    is_deadlock,
)
from repro.core.dependency import (
    AcyclicityReport,
    DependencyGraphSpec,
    ExplicitDependencySpec,
    channel_dependency_graph,
    check_acyclicity,
    class_subgraph,
    graph_statistics,
    routing_dependency_graph,
)
from repro.core.errors import (
    GeNoCError,
    InjectionError,
    ObligationViolation,
    RoutingError,
    SpecificationError,
    SwitchingError,
)
from repro.core.genoc import GeNoCEngine, GeNoCResult, StepRecord
from repro.core.instance import NoCInstance
from repro.core.measure import (
    flit_hop_measure,
    pending_travel_measure,
    route_length_measure,
)
from repro.core.obligations import (
    ObligationResult,
    check_c1,
    check_c2,
    check_c3,
    check_c3_routing_induced,
    check_c4,
    check_c5,
    check_v1_escape_coverage,
    check_v2_escape_acyclicity,
)
from repro.core.cache import (
    InstanceCache,
    instance_cache,
    reset_instance_cache,
)
from repro.core.portfolio import (
    PortfolioReport,
    Scenario,
    ScenarioVerdict,
    merge_shard_reports,
    run_portfolio,
    scenarios_from_specs,
    shard_index_of,
    standard_matrix,
    standard_portfolio,
    vc_escape_matrix,
    vc_escape_portfolio,
)
from repro.core.spec import (
    ScenarioSpec,
    SpecRegistry,
    expand_matrix,
    register_builder,
    spec_registry,
)
from repro.core.pipeline import (
    VerificationReport,
    discharge_obligations,
    verify_instance,
)
from repro.core.state import NetworkState
from repro.core.theorems import (
    TheoremResult,
    check_correctness,
    check_deadlock_freedom,
    check_deadlock_freedom_vc,
    check_evacuation,
    check_no_reachable_deadlock,
    derive_evacuation,
)
from repro.core.travel import Travel, fresh_travel_id, make_travel
from repro.core.witness import (
    DeadlockWitness,
    WitnessRoundTrip,
    cycle_to_deadlock_configuration,
    verify_witness_roundtrip,
)

__all__ = [
    "Configuration",
    "NOT_INJECTED",
    "TravelProgress",
    "initial_configuration",
    "IdentityInjection",
    "InjectionMethod",
    "RoutingFunction",
    "SwitchingPolicy",
    "DeadlockAnalysis",
    "DeadlockQuerySession",
    "analyse_deadlock",
    "is_deadlock",
    "AcyclicityReport",
    "DependencyGraphSpec",
    "ExplicitDependencySpec",
    "channel_dependency_graph",
    "check_acyclicity",
    "class_subgraph",
    "graph_statistics",
    "routing_dependency_graph",
    "GeNoCError",
    "InjectionError",
    "ObligationViolation",
    "RoutingError",
    "SpecificationError",
    "SwitchingError",
    "GeNoCEngine",
    "GeNoCResult",
    "StepRecord",
    "NoCInstance",
    "flit_hop_measure",
    "pending_travel_measure",
    "route_length_measure",
    "ObligationResult",
    "check_c1",
    "check_c2",
    "check_c3",
    "check_c3_routing_induced",
    "check_c4",
    "check_c5",
    "check_v1_escape_coverage",
    "check_v2_escape_acyclicity",
    "InstanceCache",
    "instance_cache",
    "reset_instance_cache",
    "PortfolioReport",
    "Scenario",
    "ScenarioVerdict",
    "merge_shard_reports",
    "run_portfolio",
    "scenarios_from_specs",
    "shard_index_of",
    "standard_matrix",
    "standard_portfolio",
    "vc_escape_matrix",
    "vc_escape_portfolio",
    "ScenarioSpec",
    "SpecRegistry",
    "expand_matrix",
    "register_builder",
    "spec_registry",
    "VerificationReport",
    "discharge_obligations",
    "verify_instance",
    "NetworkState",
    "TheoremResult",
    "check_correctness",
    "check_deadlock_freedom",
    "check_deadlock_freedom_vc",
    "check_evacuation",
    "check_no_reachable_deadlock",
    "derive_evacuation",
    "Travel",
    "fresh_travel_id",
    "make_travel",
    "DeadlockWitness",
    "WitnessRoundTrip",
    "cycle_to_deadlock_configuration",
    "verify_witness_roundtrip",
]
