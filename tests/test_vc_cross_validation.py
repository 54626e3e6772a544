"""Simulator / theorem cross-validation.

For every portfolio scenario small enough to simulate, the simulator's
deadlock/evacuation outcome must be *consistent* with the Theorem 1 (or
VC escape) verdict:

* verdict deadlock-free  =>  no simulated workload may deadlock;
* a simulated deadlock   =>  the verdict must be deadlock-prone (the
  converse need not hold -- a deadlock-prone design deadlocks only for
  adversarial workloads, which this module constructs for the known case).

Also exercises the VC wormhole switching operationally: per-VC worm
coexistence on one physical port, one-flit-per-link arbitration, and full
evacuation with CorrThm/EvacThm on VC escape instances.
"""

import pytest

from repro.core.portfolio import (
    Scenario,
    run_portfolio,
    standard_portfolio,
    vc_escape_portfolio,
)
from repro.core.theorems import check_correctness, check_evacuation
from repro.core.travel import make_travel
from repro.network.vc import VirtualChannel, port_of, vc_of
from repro.simulation.simulator import Simulator
from repro.simulation.workloads import (
    transpose_traffic,
    uniform_random_traffic,
)
from repro.switching.wormhole import VCWormholeSwitching
from repro.vcnoc.instantiation import (
    build_vc_mesh_instance,
    build_vc_ring_instance,
    build_vc_torus_instance,
)


def _small_workloads(instance, max_ports: int = 350):
    """Workloads for scenarios small enough to simulate, else empty."""
    if len(instance.topology.ports) > max_ports:
        return []
    workloads = [uniform_random_traffic(instance, num_messages=8,
                                        num_flits=3, seed=2010)]
    size = getattr(instance.topology, "width", None)
    if size is not None and getattr(instance.topology, "height",
                                    None) == size:
        workloads.append(transpose_traffic(instance, num_flits=3))
    return workloads


class TestPortfolioSimulationConsistency:
    @pytest.fixture(scope="class")
    def scenarios_and_report(self):
        scenarios = (standard_portfolio(mesh_sizes=(3,), ring_sizes=(4,))
                     + vc_escape_portfolio(mesh_sizes=(3,), torus_sizes=(4,),
                                           vc_counts=(1, 2)))
        report = run_portfolio(scenarios, cross_check=True)
        return scenarios, report

    def test_every_simulable_scenario_is_consistent(self,
                                                    scenarios_and_report):
        scenarios, report = scenarios_and_report
        verdicts = {v.scenario: v.deadlock_free for v in report.verdicts}
        simulated = 0
        for scenario in scenarios:
            instance = scenario.resolve()
            for workload in _small_workloads(instance):
                result = Simulator(instance, max_steps=2000).run(workload)
                simulated += 1
                if verdicts[scenario.name]:
                    assert not result.genoc_result.deadlocked, (
                        f"{scenario.name} is verified deadlock-free but "
                        f"workload {workload.name} deadlocked")
                    assert result.genoc_result.evacuated
                elif result.genoc_result.deadlocked:
                    # Consistent: a deadlock may only occur on a design the
                    # verdict calls prone.
                    assert not verdicts[scenario.name]
        assert simulated >= 10, "the consistency sweep must actually run"

    def test_known_prone_design_actually_deadlocks(self):
        """The contrapositive direction, witnessed: the clockwise ring
        deadlocks under its adversarial workload, matching its verdict."""
        from repro.ringnoc.instantiation import build_clockwise_ring_instance

        instance = build_clockwise_ring_instance(4)
        report = run_portfolio([Scenario(name="ring", instance=instance)])
        assert not report.verdicts[0].deadlock_free
        travels = [instance.make_travel((i, 0), ((i + 2) % 4, 0),
                                        num_flits=3) for i in range(4)]
        result = instance.run(travels, capacity=1)
        assert result.deadlocked


class TestVcSimulation:
    @pytest.mark.parametrize("policy", ["escape", "adaptive", "spread"])
    def test_mesh_escape_instance_evacuates_with_theorems(self, policy):
        instance = build_vc_mesh_instance(3, 3, num_vcs=2,
                                          route_policy=policy)
        workload = uniform_random_traffic(instance, num_messages=12,
                                          num_flits=4, seed=2010)
        original = instance.initial_configuration(list(workload.travels))
        result = instance.engine(max_steps=2000).run(original.copy(),
                                                     check_invariants=True)
        assert result.evacuated
        assert check_correctness(instance, original, result).holds
        assert check_evacuation(instance, original, result).holds

    def test_torus_and_ring_escape_instances_evacuate(self):
        for instance in (build_vc_torus_instance(4, 3, num_vcs=2),
                         build_vc_ring_instance(4, num_vcs=2)):
            workload = uniform_random_traffic(instance, num_messages=8,
                                              num_flits=3, seed=2010)
            result = Simulator(instance, max_steps=2000).run(workload)
            assert result.genoc_result.evacuated
            assert result.correctness_ok and result.evacuation_ok

    @staticmethod
    def _converging_worms(instance, vcs=(1, 0), num_flits=4):
        """Two worms from different sources converging on the shared link
        into node (2, 0), each on its own VC."""
        relation = instance.relation
        dst = VirtualChannel(instance.topology.node_at(2, 0).local_out, 0)
        travels = []
        for travel_id, (source_node, vc) in enumerate(
                zip([(0, 0), (1, 0)], vcs), start=1):
            src = VirtualChannel(
                instance.topology.node_at(*source_node).local_in, 0)
            base = relation.compute_route(src, dst, preference="escape")
            route = [channel if port_of(channel).is_local
                     else channel.with_vc(vc) for channel in base]
            travels.append(make_travel(src, dst, num_flits=num_flits,
                                       travel_id=travel_id)
                           .with_route(route))
        return travels

    def test_worms_coexist_on_different_vcs_of_one_port(self):
        """Per-VC ownership: two worms share a physical port on distinct
        VCs, which single-VC wormhole switching forbids."""
        instance = build_vc_mesh_instance(3, 1, num_vcs=2)
        travels = self._converging_worms(instance)
        config = instance.initial_configuration(travels)
        config = instance.routing.route_configuration(config)
        switching = instance.switching
        assert isinstance(switching, VCWormholeSwitching)
        shared = False
        steps = 0
        while config.travels and steps < 200:
            config = switching.step(config)
            steps += 1
            occupied = {}
            for channel, state in config.state.items():
                if not state.buffer.is_empty:
                    occupied.setdefault(port_of(channel), set()).add(
                        vc_of(channel))
            if any(len(vcs) > 1 for vcs in occupied.values()):
                shared = True
        assert not config.travels, "both worms must evacuate"
        assert shared, "the two worms must overlap on one physical port"

    def test_link_arbitration_one_flit_per_link_per_step(self):
        """Two worms on different VCs converging on one physical link: per
        step, at most one flit crosses each physical link."""
        instance = build_vc_mesh_instance(3, 1, num_vcs=2)
        travels = self._converging_worms(instance, num_flits=5)
        config = instance.initial_configuration(travels)
        config = instance.routing.route_configuration(config)
        switching = instance.switching

        def flits_by_in_port(state):
            counts = {}
            for channel, port_state in state.items():
                if port_of(channel).is_input and port_of(channel).is_cardinal:
                    for flit in port_state.buffer:
                        key = (port_of(channel), flit.travel_id, flit.index)
                        counts[key] = vc_of(channel)
            return counts

        steps = 0
        while config.travels and steps < 300:
            before = flits_by_in_port(config.state)
            config = switching.step(config)
            steps += 1
            after = flits_by_in_port(config.state)
            arrivals_per_port = {}
            for key in after:
                if key not in before:
                    port = key[0]
                    arrivals_per_port[port] = (
                        arrivals_per_port.get(port, 0) + 1)
            assert all(count <= 1 for count in arrivals_per_port.values()), (
                f"step {steps}: more than one flit crossed a link: "
                f"{arrivals_per_port}")
        assert not config.travels

    def test_single_vc_network_layer_is_the_degenerate_case(self):
        """The network layer's degenerate case: a 1-VC channel network
        under the *plain* wormhole policy reproduces the classic HERMES XY
        behaviour step for step.  (``VCWormholeSwitching`` itself is
        deliberately stricter -- credit-based header allocation -- so the
        comparison isolates the resource layer.)"""
        from dataclasses import replace

        from repro.hermes.instantiation import build_hermes_instance
        from repro.switching.wormhole import WormholeSwitching

        vc_instance = replace(
            build_vc_mesh_instance(3, 3, num_vcs=1, route_policy="escape"),
            switching=WormholeSwitching())
        hermes = build_hermes_instance(3, 3)
        vc_workload = uniform_random_traffic(vc_instance, num_messages=10,
                                             num_flits=3, seed=7)
        hermes_workload = uniform_random_traffic(hermes, num_messages=10,
                                                 num_flits=3, seed=7)
        vc_result = Simulator(vc_instance, max_steps=2000).run(vc_workload)
        hermes_result = Simulator(hermes,
                                  max_steps=2000).run(hermes_workload)
        assert vc_result.genoc_result.evacuated
        assert hermes_result.genoc_result.evacuated
        assert (vc_result.genoc_result.steps
                == hermes_result.genoc_result.steps)

    def test_fault_injected_escape_proved_free_drains(self):
        """A fault-injected escape-channel design the prover calls free
        must evacuate every simulated workload: vc-mesh 3x3 with 2 VCs and
        the seed-0 single dead link L(0,2)-(1,2)."""
        from repro.core.spec import ScenarioSpec
        from repro.core.theorems import check_deadlock_freedom_vc

        spec = ScenarioSpec(kind="vc-mesh", dims=(3, 3), num_vcs=2,
                            faults=1, fault_seed=0).normalized()
        instance = spec.build()
        assert "~L" in instance.name, "the fault must reach the instance"
        assert check_deadlock_freedom_vc(instance.routing).holds
        for workload in _small_workloads(instance):
            result = Simulator(instance, max_steps=2000).run(workload)
            assert not result.genoc_result.deadlocked
            assert result.genoc_result.evacuated

    def test_fault_injected_escape_proved_prone_stalls(self):
        """The contrapositive, witnessed on a faulty instance: the 1-VC
        vc-mesh (escape class shares the single channel with the adaptive
        class) is proved prone, and four worms chasing each other around a
        surviving unit square actually deadlock under capacity 1."""
        from repro.core.spec import ScenarioSpec
        from repro.core.theorems import check_deadlock_freedom_vc
        from repro.network.port import Direction, Port, PortName

        spec = ScenarioSpec(kind="vc-mesh", dims=(3, 3), num_vcs=1,
                            faults=1, fault_seed=1).normalized()
        instance = spec.build()
        assert not check_deadlock_freedom_vc(instance.routing).holds

        def channel(x, y, name, direction):
            return VirtualChannel(Port(x, y, name, direction), 0)

        def hop_names(a, b):
            if b[0] == a[0] + 1:
                return PortName.EAST, PortName.WEST
            if b[0] == a[0] - 1:
                return PortName.WEST, PortName.EAST
            if b[1] == a[1] + 1:
                return PortName.SOUTH, PortName.NORTH
            return PortName.NORTH, PortName.SOUTH

        # The seed-1 fault kills L(1,0)-(2,0), leaving the unit square
        # (0,0)-(1,0)-(1,1)-(0,1) intact.  Each worm travels two
        # consecutive legs of the square cycle -- every route is minimal
        # and every hop legal for the adaptive class.
        corners = [(0, 0), (1, 0), (1, 1), (0, 1)]
        travels = []
        for travel_id in range(4):
            p0 = corners[travel_id]
            p1 = corners[(travel_id + 1) % 4]
            p2 = corners[(travel_id + 2) % 4]
            route = [channel(*p0, PortName.LOCAL, Direction.IN)]
            for a, b in ((p0, p1), (p1, p2)):
                out_name, in_name = hop_names(a, b)
                route.append(channel(*a, out_name, Direction.OUT))
                route.append(channel(*b, in_name, Direction.IN))
            route.append(channel(*p2, PortName.LOCAL, Direction.OUT))
            travels.append(make_travel(route[0], route[-1], num_flits=3,
                                       travel_id=travel_id + 1)
                           .with_route(route))
        result = instance.run(travels, capacity=1)
        assert result.deadlocked
        assert not result.evacuated

    def test_vc_switching_is_never_faster_only_safer(self):
        """Credit allocation can only delay a worm, never reorder it: the
        VC policy evacuates the same workload in at least as many steps."""
        vc_instance = build_vc_mesh_instance(3, 3, num_vcs=1,
                                             route_policy="escape")
        workload = uniform_random_traffic(vc_instance, num_messages=10,
                                          num_flits=3, seed=7)
        strict = Simulator(vc_instance, max_steps=2000).run(workload)
        from dataclasses import replace

        from repro.switching.wormhole import WormholeSwitching

        relaxed_instance = replace(vc_instance,
                                   switching=WormholeSwitching())
        relaxed = Simulator(relaxed_instance, max_steps=2000).run(workload)
        assert strict.genoc_result.evacuated
        assert relaxed.genoc_result.evacuated
        assert strict.genoc_result.steps >= relaxed.genoc_result.steps
