"""Tests for dependency graphs (generic core machinery)."""

import pytest

from repro.checking.graphs import (
    ReprRanks,
    check_certificate,
    cycle_and_escape_edges,
    find_cycle_dfs,
)
from repro.core.dependency import (
    ExplicitDependencySpec,
    graph_statistics,
    routing_dependency_graph,
)
from repro.core.errors import SpecificationError
from repro.hermes.dependency import ExyDependencySpec
from repro.network.mesh import Mesh2D
from repro.network.port import Direction, Port, PortName
from repro.routing.adaptive import FullyAdaptiveMinimalRouting
from repro.routing.xy import XYRouting


@pytest.fixture
def mesh():
    return Mesh2D(2, 2)


class TestRoutingInducedGraph:
    def test_vertices_cover_all_ports(self, mesh):
        graph = routing_dependency_graph(XYRouting(mesh))
        assert graph.vertex_count == mesh.port_count

    def test_local_out_ports_are_sinks(self, mesh):
        graph = routing_dependency_graph(XYRouting(mesh))
        for port in mesh.local_out_ports():
            assert graph.out_degree(port) == 0

    def test_every_edge_is_a_next_hop_for_some_destination(self, mesh):
        routing = XYRouting(mesh)
        graph = routing_dependency_graph(routing)
        for source, target in graph.edges():
            found = False
            for destination in routing.destinations():
                if source == destination:
                    continue
                if not routing.reachable(source, destination):
                    continue
                if target in routing.next_hops(source, destination):
                    found = True
                    break
            assert found

    def test_xy_induced_graph_is_acyclic(self, mesh):
        graph = routing_dependency_graph(XYRouting(mesh))
        assert find_cycle_dfs(graph).acyclic

    def test_adaptive_induced_graph_is_cyclic(self, mesh):
        graph = routing_dependency_graph(FullyAdaptiveMinimalRouting(mesh))
        report = find_cycle_dfs(graph)
        assert not report.acyclic
        assert report.cycle

    def test_explicit_destinations_parameter(self, mesh):
        routing = XYRouting(mesh)
        only = [mesh.node_at(0, 0).local_out]
        graph = routing_dependency_graph(routing, destinations=only)
        full = routing_dependency_graph(routing)
        assert graph.edge_count < full.edge_count


class TestDependencySpecs:
    def test_explicit_spec_roundtrip(self, mesh):
        a = Port(0, 0, PortName.LOCAL, Direction.IN)
        b = Port(0, 0, PortName.EAST, Direction.OUT)
        spec = ExplicitDependencySpec(mesh, {a: {b}})
        assert spec.has_edge(a, b)
        assert not spec.has_edge(b, a)
        assert (a, b) in spec.edges()
        assert b in spec.to_graph().successors(a)

    def test_explicit_spec_rejects_foreign_ports(self, mesh):
        a = Port(0, 0, PortName.LOCAL, Direction.IN)
        bogus = Port(7, 7, PortName.EAST, Direction.OUT)
        spec = ExplicitDependencySpec(mesh, {a: {bogus}})
        with pytest.raises(SpecificationError):
            spec.validate()

    def test_exy_spec_is_a_dependency_spec(self, mesh):
        spec = ExyDependencySpec(mesh)
        spec.validate()
        assert spec.topology is mesh

    def test_spec_ports_match_topology(self, mesh):
        spec = ExyDependencySpec(mesh)
        assert set(spec.ports()) == set(mesh.ports)


def _certified(graph):
    ids = graph.to_ids()
    core, _, certificate = cycle_and_escape_edges(
        ids, ReprRanks().ranks(ids.vertices))
    return core, check_certificate(ids.successors, certificate)


class TestCertifiedSearch:
    def test_checker_accepts_the_numbering_of_exy_dep(self, mesh):
        core, rejected = _certified(ExyDependencySpec(mesh).to_graph())
        assert core == [] and rejected is None

    def test_checker_accepts_the_cycle_of_the_adaptive_graph(self, mesh):
        core, rejected = _certified(
            routing_dependency_graph(FullyAdaptiveMinimalRouting(mesh)))
        assert core and rejected is None


class TestGraphStatistics:
    def test_fig3_statistics_for_2x2(self, mesh):
        """The structure of the paper's Fig. 3 (2x2 mesh dependency graph)."""
        stats = graph_statistics(ExyDependencySpec(mesh).to_graph())
        # 4 nodes x (2 cardinal + 1 local) x 2 directions = 24 ports.
        assert stats["vertices"] == 24
        # 4 local in-ports are pure sources, 4 local out-ports pure sinks.
        assert stats["sources"] == 4
        assert stats["sinks"] == 4
        assert stats["edges"] > 0

    def test_statistics_scale_with_mesh_size(self):
        small = graph_statistics(ExyDependencySpec(Mesh2D(2, 2)).to_graph())
        large = graph_statistics(ExyDependencySpec(Mesh2D(4, 4)).to_graph())
        assert large["vertices"] > small["vertices"]
        assert large["edges"] > small["edges"]
