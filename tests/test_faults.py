"""Tests for the fault model (:mod:`repro.network.faults`), the
fault-aware routing repair (:mod:`repro.routing.fault_aware`), the
``faults=k, seed=n`` scenario grammar, and the shard-merge invariant over
a fault matrix.
"""

import pytest

from repro.core.errors import RoutingError, SpecificationError
from repro.core.spec import ScenarioSpec, expand_matrix, fault_suffix
from repro.network.faults import (
    FaultSpec,
    FaultyMesh2D,
    FaultyRing,
    FaultyTorus2D,
    link_key,
    node_adjacency,
    sample_fault_spec,
    surviving_graph_connected,
)
from repro.network.mesh import Mesh2D
from repro.network.port import Direction, Port, PortName
from repro.network.ring import Ring
from repro.network.torus import Torus2D
from repro.routing.fault_aware import (
    FaultAwareRouting,
    fault_aware_mesh_routing,
    fault_aware_ring_routing,
)


def local_in(x, y):
    return Port(x, y, PortName.LOCAL, Direction.IN)


def local_out(x, y):
    return Port(x, y, PortName.LOCAL, Direction.OUT)


class TestFaultSpec:
    def test_links_are_canonically_ordered_and_sorted(self):
        spec = FaultSpec(dead_links=(((1, 0), (0, 0)), ((2, 2), (1, 2))))
        assert spec.dead_links == (((0, 0), (1, 0)), ((1, 2), (2, 2)))
        assert spec.is_dead_link((0, 0), (1, 0))
        assert spec.is_dead_link((1, 0), (0, 0))
        assert not spec.is_dead_link((0, 0), (0, 1))

    def test_describe_is_deterministic(self):
        spec = FaultSpec(dead_links=(((0, 0), (1, 0)),),
                         dead_routers=((2, 2),))
        assert spec.describe() == "L(0,0)-(1,0)+R(2,2)"
        assert FaultSpec().describe() == "none"
        assert spec.count == 2

    def test_connectivity_check_rejects_disconnections(self):
        adjacency = node_adjacency(Ring(4, bidirectional=True))
        # Any one ring link leaves a chain: still connected.
        assert surviving_graph_connected(
            adjacency, [link_key((0, 0), (1, 0))], [])
        # Two links cut the ring in two.
        assert not surviving_graph_connected(
            adjacency, [link_key((0, 0), (1, 0)),
                        link_key((2, 0), (3, 0))], [])


class TestFaultSampling:
    def test_sampling_is_deterministic(self):
        mesh = Mesh2D(3, 3)
        a = sample_fault_spec(mesh, 2, 7)
        b = sample_fault_spec(Mesh2D(3, 3), 2, 7)
        assert a == b
        assert a.count == 2
        assert a != sample_fault_spec(mesh, 2, 8) or True  # seeds may tie

    @pytest.mark.parametrize("seed", range(12))
    def test_sampled_fabrics_stay_connected(self, seed):
        mesh = Mesh2D(3, 3)
        adjacency = node_adjacency(mesh)
        spec = sample_fault_spec(mesh, 2, seed)
        assert surviving_graph_connected(adjacency, spec.dead_links,
                                         spec.dead_routers)

    def test_router_kills_can_be_disallowed(self):
        for seed in range(10):
            spec = sample_fault_spec(Ring(6, bidirectional=True), 1, seed,
                                     allow_routers=False)
            assert not spec.dead_routers

    def test_impossible_placements_raise(self):
        # A 2-node ring cannot lose a link pair and stay connected (the
        # wrap pair collapses onto one undirected key), nor can any
        # topology lose all its routers but one.
        with pytest.raises(SpecificationError):
            sample_fault_spec(Ring(2, bidirectional=True), 1, 0,
                              allow_routers=False)


class TestFaultyTopologies:
    def test_dead_link_removes_both_port_names(self):
        spec = FaultSpec(dead_links=(((0, 0), (1, 0)),))
        mesh = FaultyMesh2D(3, 3, spec)
        assert not mesh.has_port(Port(0, 0, PortName.EAST, Direction.OUT))
        assert not mesh.has_port(Port(1, 0, PortName.WEST, Direction.IN))
        # The untouched opposite-side link survives.
        assert mesh.has_port(Port(1, 0, PortName.EAST, Direction.OUT))
        mesh.validate()

    def test_dead_router_removes_the_node_and_its_links(self):
        spec = FaultSpec(dead_routers=((1, 1),))
        mesh = FaultyMesh2D(3, 3, spec)
        assert not mesh.has_node(1, 1)
        # The neighbours lose the port name pointing at the dead router.
        assert not mesh.has_port(Port(0, 1, PortName.EAST, Direction.OUT))
        assert not mesh.has_port(Port(1, 0, PortName.SOUTH, Direction.OUT))
        mesh.validate()
        assert str(mesh).endswith("~R(1,1)")

    def test_faulty_torus_and_ring_validate(self):
        torus = FaultyTorus2D(3, 3, sample_fault_spec(Torus2D(3, 3), 2, 1))
        torus.validate()
        ring = FaultyRing(6, sample_fault_spec(
            Ring(6, bidirectional=True), 1, 1, allow_routers=False))
        ring.validate()


class TestFaultAwareRouting:
    def _faulty_mesh(self, seed=1, faults=2):
        spec = sample_fault_spec(Mesh2D(3, 3), faults, seed)
        return FaultyMesh2D(3, 3, spec)

    @pytest.mark.parametrize("token", ["xy", "yx", "west-first",
                                       "north-last", "negative-first",
                                       "odd-even", "adaptive", "zigzag"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_all_pairs_route_and_terminate(self, token, seed):
        mesh = self._faulty_mesh(seed=seed)
        routing = fault_aware_mesh_routing(token, mesh)
        nodes = [node.coordinates for node in mesh.nodes]
        for source in nodes:
            for target in nodes:
                route = routing.compute_route(local_in(*source),
                                              local_out(*target))
                assert route[-1] == local_out(*target)
                # Every hop is a port of the surviving fabric.
                assert all(mesh.has_port(port) for port in route)

    def test_deterministic_variants_give_single_hops(self):
        mesh = self._faulty_mesh()
        routing = fault_aware_mesh_routing("xy", mesh)
        assert routing.is_deterministic
        for source in [n.coordinates for n in mesh.nodes]:
            for target in [n.coordinates for n in mesh.nodes]:
                if source == target:
                    continue
                hops = routing.next_hops(local_in(*source),
                                         local_out(*target))
                assert len(hops) == 1

    def test_routes_take_shortest_surviving_paths(self):
        # Kill the (0,0)-(1,0) link: the East route from (0,0) to (2,0)
        # must detour through row 1 -- 4 hops instead of 2.
        mesh = FaultyMesh2D(3, 3, FaultSpec(dead_links=(((0, 0), (1, 0)),)))
        routing = fault_aware_mesh_routing("xy", mesh)
        route = routing.compute_route(local_in(0, 0), local_out(2, 0))
        hops = sum(1 for a, b in zip(route, route[1:]) if a.node != b.node)
        assert hops == 4

    def test_adaptive_variant_is_not_deterministic(self):
        mesh = self._faulty_mesh()
        routing = fault_aware_mesh_routing("adaptive", mesh)
        assert not routing.is_deterministic

    def test_unknown_token_raises(self):
        with pytest.raises(RoutingError, match="no fault-aware variant"):
            fault_aware_mesh_routing("bogus", self._faulty_mesh())
        with pytest.raises(RoutingError, match="no fault-aware variant"):
            fault_aware_ring_routing("bogus", Ring(4, bidirectional=True))

    def test_ring_tokens_keep_their_character_on_ties(self):
        # On a healthy even ring the antipodal distance ties; clockwise
        # breaks the tie East, chain breaks it West.
        ring = Ring(4, bidirectional=True)
        clockwise = fault_aware_ring_routing("clockwise", ring)
        chain = fault_aware_ring_routing("chain", ring)
        east = clockwise.next_hops(local_in(0, 0), local_out(2, 0))
        west = chain.next_hops(local_in(0, 0), local_out(2, 0))
        assert east == [Port(0, 0, PortName.EAST, Direction.OUT)]
        assert west == [Port(0, 0, PortName.WEST, Direction.OUT)]

    def test_unreachable_destination_raises(self):
        mesh = self._faulty_mesh()
        routing = FaultAwareRouting(mesh, "xy")
        with pytest.raises(RoutingError):
            routing.next_hops(local_in(0, 0), Port(9, 9, PortName.LOCAL,
                                                   Direction.OUT))


class TestFaultSpecGrammar:
    def test_fault_fields_round_trip(self):
        spec = ScenarioSpec(kind="mesh", dims=(3, 3), routing="xy",
                            switching="wormhole", faults=2, fault_seed=5)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert fault_suffix(spec) == "/f2s5"
        assert fault_suffix(ScenarioSpec(kind="mesh", dims=(3, 3))) == ""

    def test_matrix_expands_fault_and_seed_axes(self):
        specs = expand_matrix("mesh:3x3, routing=xy, faults=0..2, seed=0..1")
        assert [(s.faults, s.fault_seed) for s in specs] == [
            (0, 0), (0, 0), (1, 0), (1, 1), (2, 0), (2, 1)]

    def test_healthy_specs_collapse_their_seed(self):
        specs = expand_matrix("mesh:3x3, routing=xy, faults=0, seed=0..5")
        assert all(spec.fault_seed == 0 for spec in specs)
        assert len(set(specs)) == 1

    def test_underscore_routing_aliases_normalize(self):
        specs = expand_matrix("mesh:3x3, routing=[west_first,odd_even]")
        assert [spec.routing for spec in specs] == ["west-first", "odd-even"]

    def test_faulty_specs_name_with_the_fault_suffix(self):
        spec = expand_matrix("mesh:3x3, routing=xy, faults=1, seed=3")[0]
        assert spec.scenario_name() == "mesh-3x3/Rxy/Swh/f1s3"

    def test_negative_faults_are_rejected(self):
        with pytest.raises(SpecificationError, match="non-negative"):
            ScenarioSpec(kind="mesh", dims=(3, 3), routing="xy",
                         faults=-1).normalized()

    @pytest.mark.parametrize("kind,dims", [
        ("mesh", (3, 3)), ("ring", (5,)), ("vc-mesh", (3, 3)),
        ("vc-torus", (3, 3)), ("vc-ring", (5,)),
    ])
    def test_every_kind_builds_its_fault_variant(self, kind, dims):
        spec = ScenarioSpec(kind=kind, dims=dims, faults=1, fault_seed=0,
                            num_vcs=2 if kind.startswith("vc-") else 1)
        instance = spec.normalized().build()
        instance.topology.validate() if not kind.startswith("vc-") else None
        assert "~" in str(instance.topology) or "~" in instance.name


FAULT_MATRIX = (
    "mesh:3x3, routing=[west_first,north_last,negative_first,odd_even], "
    "faults=0..2, seed=0..1; "
    "ring:4, routing=[chain,clockwise], faults=0..1, seed=0..1; "
    "vc-mesh:3x3, vcs=2, faults=0..1, seed=0..1"
)


class TestFaultMatrixSharding:
    """Satellite invariant: merged shard reports over a fault matrix are
    byte-identical to the unsharded run, for both balance policies."""

    @pytest.fixture(scope="class")
    def full_report(self):
        from repro.core.portfolio import run_portfolio, scenarios_from_specs

        scenarios = scenarios_from_specs(expand_matrix(FAULT_MATRIX))
        assert len(scenarios) >= 24
        return scenarios, run_portfolio(scenarios, cross_check=True)

    @pytest.mark.parametrize("balance", ["hash", "weighted"])
    @pytest.mark.parametrize("shards", [2, 3])
    def test_merged_shards_equal_the_unsharded_run(self, full_report,
                                                   balance, shards):
        from repro.core.portfolio import (
            merge_shard_reports,
            run_portfolio,
            scenarios_from_specs,
        )

        scenarios, full = full_report
        merged = merge_shard_reports(
            [run_portfolio(scenarios, cross_check=True,
                           shard=(index, shards), shard_balance=balance)
             for index in range(shards)])
        assert merged.comparable_dict() == full.comparable_dict()

    def test_fault_verdicts_depend_on_the_fault_set(self, full_report):
        """The sweep must contain genuinely fault-broken designs: at least
        one turn-model scenario flips to prone under some fault set while
        its healthy base stays free."""
        _, report = full_report
        verdicts = {v.scenario: v.deadlock_free for v in report.verdicts}
        healthy_free = [name for name, free in verdicts.items()
                        if free and "/f" not in name]
        faulty_prone = [name for name, free in verdicts.items()
                        if not free and "/f" in name]
        assert healthy_free and faulty_prone


FAULT_ACCEPTANCE_MATRIX = (
    "mesh:3x3, routing=[west_first,north_last,negative_first,odd_even], "
    "faults=0..2, seed=0..1; "
    "ring:4, routing=[chain,clockwise], faults=0..1, seed=0; "
    "vc-mesh:3x3, vcs=1..2, faults=0..1, seed=0; "
    "vc-torus:3x3, vcs=2, faults=1, seed=0..1; "
    "vc-ring:4, vcs=2, faults=1, seed=0"
)


class TestFaultAcceptanceFixture:
    """Pinned verdicts for the turn-model / fault family.

    ``tests/data/acceptance_faults.json`` byte-pins the portfolio report
    of :data:`FAULT_ACCEPTANCE_MATRIX` -- the fault sampler, the faulty
    topologies, the fault-aware reroutes and the verdict engine all feed
    into it, so any future rewrite of any of those layers must reproduce
    these verdicts bit for bit (pattern of
    ``acceptance_pr4_verdicts.json``).  Cycle cores are pinned
    semantically, not byte-wise: each must be a genuine cycle witness.
    """

    @pytest.fixture(scope="class")
    def report(self):
        from repro.core.portfolio import run_portfolio, scenarios_from_specs

        scenarios = scenarios_from_specs(
            expand_matrix(FAULT_ACCEPTANCE_MATRIX))
        return run_portfolio(scenarios)

    def test_verdicts_match_the_pinned_fixture(self, report):
        import json
        import os

        fixture_path = os.path.join(os.path.dirname(__file__), "data",
                                    "acceptance_faults.json")
        with open(fixture_path, encoding="utf-8") as handle:
            fixture = json.load(handle)
        payload = report.comparable_dict()
        del payload["session_stats"]
        for entry in payload["scenarios"]:
            del entry["solver"]
        for entry in payload["scenarios"] + fixture["scenarios"]:
            del entry["cycle_core"]
            # The fixture lists each escape set in the old solver's core
            # order; the set is what the engines must agree on.
            entry["escape_edges"] = sorted(entry["escape_edges"])
        assert payload == fixture

    def test_prone_cores_are_genuine_cycle_witnesses(self, report):
        from repro.checking.graphs import DirectedGraph, find_cycle_dfs

        prone = [v for v in report.verdicts if not v.deadlock_free]
        assert prone, "the fault matrix must contain prone scenarios"
        for verdict in prone:
            assert verdict.cycle_core, verdict.scenario
            witness = DirectedGraph()
            for source, target in verdict.cycle_core:
                witness.add_edge(source, target)
            assert not find_cycle_dfs(witness).acyclic, verdict.scenario


def _rotations(nodes, shifts):
    """Per shift, one message from each node to the node ``shift`` on."""
    return [[(node, nodes[(i + shift) % len(nodes)])
             for i, node in enumerate(nodes)] for shift in shifts]


_RING_4 = [(i, 0) for i in range(4)]
_CORNERS = [(0, 0), (2, 0), (2, 2), (0, 2)]
_MIDPOINTS = [(1, 0), (2, 1), (1, 2), (0, 1)]


class TestOccurringPairsVerdicts:
    """Fault-aware scenarios that are cyclic only through (port,
    destination) pairs no route occupies are deadlock-free, and no
    workload deadlocks them.

    Each workload sends one 2-flit message from every node of a cycle of
    nodes, and every interleaving of it is explored to the end (buffer
    capacity 1).  The healthy clockwise ring, which stays deadlock-prone,
    is the positive control: workloads of the same size deadlock it.
    """

    @staticmethod
    def _explore(term, pairs):
        from repro.checking.bmc import explore_configuration_space

        (spec,) = expand_matrix(term)
        instance = spec.build()
        travels = [instance.make_travel(source, target, num_flits=2)
                   for source, target in pairs]
        return explore_configuration_space(instance, travels, capacity=1)

    @staticmethod
    def _acyclic(term):
        from repro.checking.graphs import find_cycle_dfs
        from repro.core.dependency import routing_dependency_graph

        (spec,) = expand_matrix(term)
        graph = routing_dependency_graph(spec.build().routing)
        return find_cycle_dfs(graph).acyclic

    @pytest.mark.parametrize("term, workloads", [
        ("ring:4, routing=chain, faults=1, seed=0",
         _rotations(_RING_4, (1, 2, 3))),
        ("ring:4, routing=clockwise, faults=1, seed=0",
         _rotations(_RING_4, (1, 2, 3))),
        ("mesh:3x3, routing=xy, faults=1, seed=0",
         _rotations(_CORNERS, (1, 2, 3)) + _rotations(_MIDPOINTS, (1, 2))),
    ])
    def test_free_scenarios_deadlock_on_no_workload(self, term, workloads):
        assert self._acyclic(term)
        for pairs in workloads:
            result = self._explore(term, pairs)
            assert result.complete and not result.deadlock_found, pairs

    def test_healthy_clockwise_ring_deadlocks(self):
        term = "ring:4, routing=clockwise"
        assert not self._acyclic(term)
        results = [self._explore(term, pairs)
                   for pairs in _rotations(_RING_4, (1, 2, 3))]
        assert all(result.complete for result in results)
        assert any(result.deadlock_found for result in results)
