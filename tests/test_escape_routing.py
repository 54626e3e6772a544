"""Tests for the Duato-style escape-channel routing relation and the
VC-granular deadlock verification (the (V-1)/(V-2) condition), explicit and
on the Kahn session -- including the headline result: the deadlock-prone
3x3 adaptive mesh is proved deadlock-free with 2 VCs and an XY escape class
by BOTH the explicit dependency-graph checker and the Kahn session."""

import pytest

from repro.checking.graphs import (
    ReprRanks,
    cycle_and_escape_edges,
    find_cycle_dfs,
)
from repro.cli import main as cli_main
from repro.core.deadlock import DeadlockQuerySession
from repro.core.dependency import (
    channel_dependency_graph,
    class_edges,
    class_subgraph,
    routing_dependency_graph,
)
from repro.core.obligations import (
    check_c3_routing_induced,
    check_v1_escape_coverage,
    check_v2_escape_acyclicity,
)
from repro.core.theorems import check_deadlock_freedom_vc
from repro.network.mesh import Mesh2D
from repro.network.ring import Ring
from repro.network.torus import Torus2D
from repro.network.vc import VirtualChannel, port_of, vc_of
from repro.routing.adaptive import FullyAdaptiveMinimalRouting
from repro.routing.escape import (
    mesh_escape_routing,
    ring_escape_routing,
    torus_escape_routing,
)
from repro.routing.torus import TorusXYRouting


def session_vc_verdict(relation, session=None):
    """The (V-1)/(V-2) verdict with (V-2) decided by a Kahn session.

    (V-2) is one peel restricted to the escape-class edges of the
    relation's channel graph, merged into ``session`` when one is given.
    """
    graph = channel_dependency_graph(relation)
    if session is None:
        session = DeadlockQuerySession(graph, name=relation.name())
    else:
        for source, target in graph.edges():
            session.add_edge(source, target)
    return (check_v1_escape_coverage(relation).holds
            and session.is_deadlock_free_edges(
                class_edges(graph, relation.escape_vcs)))


class TestMeshEscapeHeadline:
    """The acceptance scenario: 3x3 mesh + fully-adaptive minimal routing."""

    def test_port_level_baseline_is_deadlock_prone(self):
        routing = FullyAdaptiveMinimalRouting(Mesh2D(3, 3))
        assert not check_c3_routing_induced(routing).holds

    def test_single_vc_degenerate_case_stays_prone(self):
        relation = mesh_escape_routing(Mesh2D(3, 3), num_vcs=1)
        assert not relation.classes_separated
        explicit = check_deadlock_freedom_vc(relation)
        assert not explicit.holds
        assert not session_vc_verdict(relation)
        assert explicit.counterexamples

    def test_two_vcs_with_escape_class_are_proved_free_by_both_paths(self):
        relation = mesh_escape_routing(Mesh2D(3, 3), num_vcs=2)
        assert relation.classes_separated
        assert relation.escape_vcs == (0,)
        assert relation.adaptive_vcs == (1,)
        # The full channel graph still has the adaptive cycles ...
        graph = channel_dependency_graph(relation)
        assert not find_cycle_dfs(graph).acyclic
        # ... but the design is deadlock-free by the escape condition,
        # agreed on by the explicit checker and the Kahn session.
        explicit = check_deadlock_freedom_vc(relation)
        assert explicit.holds
        assert session_vc_verdict(relation)
        assert explicit.details["classes_separated"]

    def test_escape_subgraph_is_acyclic_while_adaptive_class_cycles(self):
        relation = mesh_escape_routing(Mesh2D(3, 3), num_vcs=2)
        graph = channel_dependency_graph(relation)
        escape = class_subgraph(graph, relation.escape_vcs)
        adaptive = class_subgraph(graph, relation.adaptive_vcs)
        assert find_cycle_dfs(escape).acyclic
        assert not find_cycle_dfs(adaptive).acyclic

    def test_cli_acceptance_invocation(self, capsys):
        assert cli_main(["deadlock", "--vcs", "2", "--escape", "xy"]) == 0
        out = capsys.readouterr().out
        assert "DEADLOCK-PRONE" in out          # the single-VC baseline
        assert "DeadThm(vc): holds" in out
        assert "Kahn session: holds" in out
        assert "proved deadlock-free with 2 VCs" in out


class TestEscapeRelation:
    def test_vc_selection_is_part_of_the_relation(self):
        relation = mesh_escape_routing(Mesh2D(3, 3), num_vcs=3)
        source = relation.topology.local_in_ports()[0]
        destination = relation.topology.local_out_ports()[-1]
        hops = relation.next_hops(source, destination)
        vcs = {vc_of(hop) for hop in hops}
        # From the injection channel both adaptive VCs and the escape VC
        # are on offer.
        assert vcs == {0, 1, 2}

    def test_escape_channels_never_leave_the_escape_class(self):
        relation = mesh_escape_routing(Mesh2D(3, 3), num_vcs=2)
        destinations = relation.destinations()
        for channel in relation.topology.ports:
            if vc_of(channel) != 0 or not port_of(channel).is_input:
                continue
            if port_of(channel).is_local:
                continue  # injection channels may choose any class
            for destination in destinations:
                if not relation.reachable(channel, destination):
                    continue
                if channel.node == destination.node:
                    continue
                for hop in relation.next_hops(channel, destination):
                    assert vc_of(hop) == 0

    def test_out_channels_keep_their_vc_across_the_link(self):
        relation = mesh_escape_routing(Mesh2D(3, 3), num_vcs=2)
        destination = relation.topology.local_out_ports()[-1]
        for channel in relation.topology.ports:
            port = port_of(channel)
            if not port.is_output or port.is_local:
                continue
            hops = relation.next_hops(channel, destination)
            assert len(hops) == 1
            assert vc_of(hops[0]) == vc_of(channel)

    def test_route_policies(self):
        relation = mesh_escape_routing(Mesh2D(3, 3), num_vcs=2)
        source = relation.topology.local_in_ports()[0]
        destination = relation.topology.local_out_ports()[-1]
        escape_route = relation.compute_route(source, destination,
                                              preference="escape")
        adaptive_route = relation.compute_route(source, destination,
                                                preference="adaptive")
        assert all(vc_of(c) == 0 for c in escape_route)
        assert any(vc_of(c) == 1 for c in adaptive_route)
        # Both policies produce relation-compliant minimal routes.
        for route in (escape_route, adaptive_route):
            assert route[0] == source and route[-1] == destination

    def test_coverage_obligation_reports_check_counts(self):
        relation = mesh_escape_routing(Mesh2D(2, 2), num_vcs=2)
        result = check_v1_escape_coverage(relation)
        assert result.holds
        assert result.checks > 0
        assert result.details["classes_separated"]


class TestDatelineEscape:
    def test_torus_single_vc_is_prone_from_size_four(self):
        relation = torus_escape_routing(Torus2D(4, 3), num_vcs=1)
        explicit = check_deadlock_freedom_vc(relation)
        assert not explicit.holds

    def test_torus_dateline_pair_is_free(self):
        relation = torus_escape_routing(Torus2D(4, 3), num_vcs=2)
        assert relation.escape_vcs == (0, 1)
        assert relation.adaptive_vcs == ()
        explicit = check_deadlock_freedom_vc(relation)
        assert explicit.holds and session_vc_verdict(relation)

    def test_torus_with_adaptive_class_on_top_is_free(self):
        relation = torus_escape_routing(Torus2D(4, 3), num_vcs=3)
        assert relation.adaptive_vcs == (2,)
        assert check_deadlock_freedom_vc(relation).holds

    def test_port_level_torus_xy_has_the_wrap_cycle(self):
        routing = TorusXYRouting(Torus2D(4, 3))
        graph = routing_dependency_graph(routing)
        assert not find_cycle_dfs(graph).acyclic

    def test_ring_dateline_repairs_the_ring(self):
        prone = ring_escape_routing(Ring(4, bidirectional=True), num_vcs=1)
        fixed = ring_escape_routing(Ring(4, bidirectional=True), num_vcs=2)
        assert not check_deadlock_freedom_vc(prone).holds
        explicit = check_deadlock_freedom_vc(fixed)
        assert explicit.holds and session_vc_verdict(fixed)

    def test_dateline_repairs_the_clockwise_routing_itself(self):
        """The CLI's `--design clockwise-ring --vcs 2` path: the dateline
        pair repairs the exact routing function the paper's counterexample
        uses, not a different ring routing."""
        from repro.routing.ring import ClockwiseRingRouting

        ring = Ring(4, bidirectional=True)
        prone = ring_escape_routing(ring, num_vcs=1,
                                    base_routing=ClockwiseRingRouting(ring))
        fixed = ring_escape_routing(ring, num_vcs=2,
                                    base_routing=ClockwiseRingRouting(ring))
        assert not check_deadlock_freedom_vc(prone).holds
        assert check_deadlock_freedom_vc(fixed).holds
        assert session_vc_verdict(fixed)

    def test_dateline_vc_switch_happens_on_wrap_hops(self):
        relation = ring_escape_routing(Ring(4, bidirectional=True),
                                       num_vcs=2)
        topology = relation.topology
        # A packet at node 3 heading to node 0 crosses the wrap link and
        # must be bumped to escape VC 1.
        source = [c for c in topology.local_in_ports() if c.x == 3][0]
        destination = [c for c in topology.local_out_ports()
                       if c.x == 0][0]
        route = relation.compute_route(source, destination)
        wrap_half = [c for c in route if c.x == 0 and not c.is_local]
        assert wrap_half
        assert all(vc_of(c) == 1 for c in wrap_half)


class TestIncrementalVcQueries:
    def test_class_restriction_query_splits_the_verdict(self):
        relation = mesh_escape_routing(Mesh2D(3, 3), num_vcs=2)
        graph = channel_dependency_graph(relation)
        session = DeadlockQuerySession(graph, name="vc test")
        assert not session.is_deadlock_free()  # adaptive cycles
        assert session.is_deadlock_free_edges(
            class_edges(graph, relation.escape_vcs))
        assert not session.is_deadlock_free_edges(
            class_edges(graph, relation.adaptive_vcs))

    def test_cycle_core_for_class_yields_adaptive_witness(self):
        relation = mesh_escape_routing(Mesh2D(3, 3), num_vcs=2)
        graph = channel_dependency_graph(relation)
        session = DeadlockQuerySession(graph)
        core = session.cycle_core_for(
            class_edges(graph, relation.adaptive_vcs))
        assert core
        assert all(vc_of(s) in relation.adaptive_vcs
                   and vc_of(t) in relation.adaptive_vcs
                   for s, t in core)
        assert session.cycle_core_for(
            class_edges(graph, relation.escape_vcs)) is None

    def test_v2_incremental_matches_explicit(self):
        for vcs in (1, 2):
            relation = mesh_escape_routing(Mesh2D(3, 3), num_vcs=vcs)
            graph = channel_dependency_graph(relation)
            explicit = check_v2_escape_acyclicity(relation, graph=graph)
            escape_class = class_edges(graph, relation.escape_vcs)
            session = DeadlockQuerySession(graph)
            assert session.is_deadlock_free_edges(escape_class) \
                == explicit.holds
            # The session stays usable for follow-up queries: its
            # single-edge repairs are the graph search's.
            escape = class_subgraph(graph, relation.escape_vcs).to_ids()
            _, fixes, _ = cycle_and_escape_edges(
                escape, ReprRanks().ranks(escape.vertices))
            assert set(session.escape_edges_for(escape_class)) == set(fixes)

    def test_shared_session_across_vc_counts(self):
        """One session hosts the channel universes of several VC
        counts (the portfolio/benchmark usage pattern)."""
        from repro.checking.graphs import DirectedGraph
        from repro.network.vc import VCTopology

        mesh = Mesh2D(3, 3)
        universe = DirectedGraph()
        for channel in VCTopology(mesh, 4).ports:
            universe.add_vertex(channel)
        session = DeadlockQuerySession(universe, name="shared vc universe")
        verdicts = {vcs: session_vc_verdict(
            mesh_escape_routing(mesh, num_vcs=vcs), session=session)
            for vcs in (1, 2, 4)}
        assert verdicts == {1: False, 2: True, 4: True}


class TestChannelDot:
    def test_channel_graph_renders_with_vc_colours(self, tmp_path):
        from repro.reporting.dot import channel_graph_to_dot, write_dot

        relation = mesh_escape_routing(Mesh2D(2, 2), num_vcs=2)
        graph = channel_dependency_graph(relation)
        text = channel_graph_to_dot(graph, escape_vcs=relation.escape_vcs)
        assert "fillcolor=gold" in text        # the escape class
        assert "fillcolor=lightsalmon" in text  # adaptive VC 1
        assert "#0" in text and "#1" in text
        path = tmp_path / "channels.dot"
        write_dot(graph, str(path), escape_vcs=relation.escape_vcs)
        assert path.read_text().startswith("digraph")

    def test_depgraph_cli_exports_channel_graph(self, tmp_path, capsys):
        path = tmp_path / "vc.dot"
        code = cli_main(["depgraph", "--width", "2", "--height", "2",
                         "--vcs", "2", "--dot", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "escape class acyclic: True" in out
        assert "full graph acyclic  : False" in out
        assert path.exists()
