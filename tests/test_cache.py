"""Tests for the per-process build counter (`repro.core.cache`), the
frozen-graph contract and the dependency-spec memoisation."""

import pytest

from repro.checking.graphs import DirectedGraph
from repro.core.cache import InstanceCache
from repro.core.dependency import routing_dependency_graph
from repro.core.spec import expand_matrix
from repro.hermes.dependency import ExyDependencySpec
from repro.network.mesh import Mesh2D
from repro.routing.xy import XYRouting


class TestFrozenGraph:
    def test_freeze_blocks_mutation(self):
        graph = DirectedGraph()
        graph.add_edge("a", "b")
        graph.freeze()
        assert graph.frozen
        with pytest.raises(ValueError):
            graph.add_edge("b", "c")
        with pytest.raises(ValueError):
            graph.add_vertex("d")
        # Reads and derived (mutable) graphs keep working.
        assert "b" in graph.successors("a")
        derived = graph.subgraph(["a", "b"])
        derived.add_edge("b", "a")
        assert not derived.frozen

    def test_fresh_graphs_are_mutable(self):
        graph = DirectedGraph()
        assert not graph.frozen
        graph.add_edge(1, 2)
        assert graph.edge_count == 1


class TestInstanceCache:
    def test_explicit_destinations_bypass_the_cache(self):
        routing = XYRouting(Mesh2D(2, 2))
        narrowed = routing_dependency_graph(
            routing, destinations=routing.destinations()[:1])
        assert not narrowed.frozen

    def test_every_build_is_a_miss(self):
        # Nothing is memoised: the same spec builds a new instance each
        # time, and the counter counts the builds.
        cache = InstanceCache()
        (spec,) = expand_matrix("mesh:2x2")
        first = cache.instance_for(spec)
        second = cache.instance_for(spec)
        assert first is not second
        assert (cache.hits, cache.misses) == (0, 2)

    def test_failed_build_is_not_counted(self):
        from repro.core.errors import SpecificationError

        cache = InstanceCache()
        (spec,) = expand_matrix("ring:5, routing=chain, faults=2")
        with pytest.raises(SpecificationError):
            cache.instance_for(spec)
        assert (cache.hits, cache.misses) == (0, 0)

    def test_cached_graph_survives_oracle_and_session_use(self):
        """The frozen cached graph must be accepted by every consumer."""
        from repro.core.deadlock import DeadlockQuerySession

        routing = XYRouting(Mesh2D(3, 3))
        session = DeadlockQuerySession.for_routing(routing)
        assert session.is_deadlock_free()


class TestDependencySpecMemoisation:
    def test_enumerations_are_cached(self):
        spec = ExyDependencySpec(Mesh2D(3, 3))
        assert spec.edges() is spec.edges()
        assert spec.ports() is spec.ports()
        assert spec.to_graph() is spec.to_graph()
        assert spec.to_graph().frozen

    def test_invalidate_cache_recomputes(self):
        spec = ExyDependencySpec(Mesh2D(2, 2))
        first_edges = spec.edges()
        first_graph = spec.to_graph()
        spec._invalidate_cache()
        assert spec.edges() is not first_edges
        assert spec.edges() == first_edges
        assert spec.to_graph() is not first_graph

    def test_cached_graph_matches_direct_construction(self):
        spec = ExyDependencySpec(Mesh2D(3, 3))
        graph = spec.to_graph()
        assert graph.edge_count == len(spec.edges())
        for source, target in spec.edges():
            assert target in graph.successors(source)
