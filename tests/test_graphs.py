"""Tests for the graph algorithms of the checking substrate."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.checking.graphs import (
    CycleSearchResult,
    DirectedGraph,
    check_rank_certificate,
    edges_on_every_cycle,
    find_cycle_dfs,
    has_cycle,
    is_acyclic,
    is_acyclic_by_networkx,
    is_acyclic_by_scc,
    is_acyclic_by_toposort,
    longest_path_length,
    strongly_connected_components,
    topological_sort,
)
from repro.network.port import Direction, Port, PortName
from repro.network.vc import VirtualChannel


def graph_from_edges(edges, vertices=None):
    return DirectedGraph.from_edges(edges, vertices=vertices)


@st.composite
def random_digraph(draw):
    n = draw(st.integers(1, 8))
    possible_edges = [(a, b) for a in range(n) for b in range(n)]
    edges = draw(st.lists(st.sampled_from(possible_edges), max_size=20))
    return DirectedGraph.from_edges(edges, vertices=range(n))


class TestDirectedGraph:
    def test_add_edge_adds_vertices(self):
        graph = DirectedGraph()
        graph.add_edge("a", "b")
        assert set(graph.vertices) == {"a", "b"}
        assert graph.has_edge("a", "b")
        assert not graph.has_edge("b", "a")

    def test_counts(self):
        graph = graph_from_edges([(1, 2), (2, 3), (1, 3)])
        assert graph.vertex_count == 3
        assert graph.edge_count == 3
        assert graph.out_degree(1) == 2
        assert graph.in_degrees()[3] == 2

    def test_isolated_vertices(self):
        graph = graph_from_edges([], vertices=[1, 2, 3])
        assert graph.vertex_count == 3
        assert graph.edge_count == 0

    def test_subgraph(self):
        graph = graph_from_edges([(1, 2), (2, 3), (3, 1)])
        sub = graph.subgraph([1, 2])
        assert sub.has_edge(1, 2)
        assert not sub.has_edge(2, 3)
        assert sub.vertex_count == 2

    def test_reverse(self):
        graph = graph_from_edges([(1, 2)])
        reversed_graph = graph.reverse()
        assert reversed_graph.has_edge(2, 1)
        assert not reversed_graph.has_edge(1, 2)

    def test_to_networkx(self):
        graph = graph_from_edges([(1, 2), (2, 3)])
        nx_graph = graph.to_networkx()
        assert nx_graph.number_of_nodes() == 3
        assert nx_graph.number_of_edges() == 2


class TestCycleSearch:
    def test_empty_graph_is_acyclic(self):
        assert is_acyclic(DirectedGraph())

    def test_dag_is_acyclic(self):
        graph = graph_from_edges([(1, 2), (2, 3), (1, 3)])
        result = find_cycle_dfs(graph)
        assert result.acyclic
        assert result.cycle is None
        assert result.visited == 3

    def test_triangle_cycle_found(self):
        graph = graph_from_edges([(1, 2), (2, 3), (3, 1)])
        result = find_cycle_dfs(graph)
        assert not result.acyclic
        assert sorted(result.cycle) == [1, 2, 3]

    def test_self_loop_is_a_cycle(self):
        graph = graph_from_edges([(1, 1)])
        assert has_cycle(graph)
        assert find_cycle_dfs(graph).cycle == [1]

    def test_cycle_vertices_form_a_real_cycle(self):
        graph = graph_from_edges([(1, 2), (2, 3), (3, 4), (4, 2), (4, 5)])
        cycle = find_cycle_dfs(graph).cycle
        assert cycle is not None
        for index, vertex in enumerate(cycle):
            assert graph.has_edge(vertex, cycle[(index + 1) % len(cycle)])

    def test_disconnected_components(self):
        graph = graph_from_edges([(1, 2), (3, 4), (4, 3)])
        assert has_cycle(graph)

    @given(random_digraph())
    @settings(max_examples=100, deadline=None)
    def test_all_methods_agree(self, graph):
        dfs = find_cycle_dfs(graph).acyclic
        assert dfs == is_acyclic_by_scc(graph)
        assert dfs == is_acyclic_by_toposort(graph)
        assert dfs == is_acyclic_by_networkx(graph)

    @given(random_digraph())
    @settings(max_examples=100, deadline=None)
    def test_reported_cycle_is_valid(self, graph):
        result = find_cycle_dfs(graph)
        if result.cycle is not None:
            cycle = result.cycle
            for index, vertex in enumerate(cycle):
                assert graph.has_edge(vertex, cycle[(index + 1) % len(cycle)])


def reference_find_cycle_dfs(graph):
    """The object-level search: every successor list sorted by ``repr``."""
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {vertex: WHITE for vertex in graph.vertices}
    parent = {}
    visited = 0
    for root in graph.vertices:
        if colour[root] != WHITE:
            continue
        stack = [(root, iter(sorted(graph.successors(root), key=repr)))]
        colour[root] = GREY
        parent[root] = None
        visited += 1
        while stack:
            vertex, successors = stack[-1]
            advanced = False
            for successor in successors:
                if colour[successor] == WHITE:
                    colour[successor] = GREY
                    parent[successor] = vertex
                    visited += 1
                    stack.append((successor, iter(sorted(
                        graph.successors(successor), key=repr))))
                    advanced = True
                    break
                if colour[successor] == GREY:
                    cycle = [successor]
                    current = vertex
                    while current is not None and current != successor:
                        cycle.append(current)
                        current = parent.get(current)
                    cycle.reverse()
                    return CycleSearchResult(acyclic=False, cycle=cycle,
                                             visited=visited)
            if not advanced:
                colour[vertex] = BLACK
                stack.pop()
    return CycleSearchResult(acyclic=True, cycle=None, visited=visited)


def reference_edges_on_every_cycle(graph, cycle):
    """One rebuilt graph per core edge, searched by the reference DFS."""
    edges = graph.edges() if cycle else []
    found = [edge for edge in cycle
             if reference_find_cycle_dfs(DirectedGraph.from_edges(
                 kept for kept in edges if kept != edge)).acyclic]
    return sorted(found, key=lambda edge: f"{edge[0]} -> {edge[1]}")


def _port_vertex(index):
    node, rest = divmod(index, 10)
    names = list(PortName)
    name = names[rest % len(names)]
    direction = Direction.IN if rest < len(names) else Direction.OUT
    return Port(node % 3, node // 3, name, direction)


#: Vertex families: plain ints, ports, and channels over the same ports.
_FAMILIES = {
    "int": lambda index: index,
    "port": _port_vertex,
    "channel": lambda index: VirtualChannel(_port_vertex(index // 3),
                                            index % 3),
}


@st.composite
def mixed_digraph(draw):
    """Several components, self-loops and isolated vertices, in any order.

    Vertex ids are drawn distinct and inserted in a random order, so
    ``graph.vertices`` order and ``repr`` order disagree.
    """
    make = _FAMILIES[draw(st.sampled_from(sorted(_FAMILIES)))]
    ids = draw(st.lists(st.integers(0, 89), min_size=1, max_size=14,
                        unique=True))
    vertices = [make(index) for index in ids]
    components = draw(st.integers(1, 3))
    edges = []
    for source_at in range(len(vertices)):
        for target_at in draw(st.lists(st.integers(0, len(vertices) - 1),
                                       max_size=3)):
            # Edges stay inside a component: vertex position mod count.
            if source_at % components == target_at % components:
                edges.append((vertices[source_at], vertices[target_at]))
    if draw(st.booleans()):
        loop = vertices[draw(st.integers(0, len(vertices) - 1))]
        edges.append((loop, loop))
    isolated = draw(st.lists(st.integers(90, 99), max_size=2, unique=True))
    graph = DirectedGraph()
    for index in draw(st.permutations(range(len(vertices)))):
        graph.add_vertex(vertices[index])
    for edge in edges:
        graph.add_edge(*edge)
    for index in isolated:
        graph.add_vertex(make(index))
    return graph


class TestIdSearchMatchesReference:
    """The dense-id search against the object-level search it replaced."""

    @given(mixed_digraph())
    @settings(max_examples=300, deadline=None)
    def test_same_cycle_and_visited(self, graph):
        result = find_cycle_dfs(graph)
        expected = reference_find_cycle_dfs(graph)
        assert (result.acyclic, result.cycle, result.visited) \
            == (expected.acyclic, expected.cycle, expected.visited)

    @given(mixed_digraph(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_escape_edges(self, graph, data):
        cycle = find_cycle_dfs(graph).cycle or []
        core = list(zip(cycle, cycle[1:] + cycle[:1]))
        if core and data.draw(st.booleans()):
            # A core drawn from the graph's edges, not only from a cycle.
            core = data.draw(st.lists(st.sampled_from(graph.edges()),
                                      min_size=1, max_size=4))
        assert edges_on_every_cycle(graph, core) \
            == reference_edges_on_every_cycle(graph, core)

    def test_core_edge_absent_from_the_graph_is_never_an_escape(self):
        graph = graph_from_edges([(1, 2), (2, 1), (3, 3)], vertices=[4])
        core = [(1, 2), (2, 1), (1, 3), (5, 6)]
        assert edges_on_every_cycle(graph, core) \
            == reference_edges_on_every_cycle(graph, core) == []
        graph = graph_from_edges([(1, 2), (2, 1)])
        core = [(2, 1), (9, 1), (1, 2), (1, 9)]
        assert edges_on_every_cycle(graph, core) \
            == reference_edges_on_every_cycle(graph, core) \
            == [(1, 2), (2, 1)]

    def test_successors_follow_repr_order_not_insertion_order(self):
        graph = graph_from_edges([(0, 30), (0, 4), (30, 0), (4, 4)])
        # "30" sorts before "4": the self-loop at 4 is never reached.
        assert find_cycle_dfs(graph).cycle == [30, 0]
        assert reference_find_cycle_dfs(graph).cycle == [30, 0]


class TestSCC:
    def test_scc_of_dag_are_singletons(self):
        graph = graph_from_edges([(1, 2), (2, 3)])
        components = strongly_connected_components(graph)
        assert sorted(len(c) for c in components) == [1, 1, 1]

    def test_scc_finds_the_cycle_component(self):
        graph = graph_from_edges([(1, 2), (2, 3), (3, 1), (3, 4)])
        components = strongly_connected_components(graph)
        sizes = sorted(len(c) for c in components)
        assert sizes == [1, 3]

    def test_scc_partition_covers_all_vertices(self):
        graph = graph_from_edges([(1, 2), (2, 1), (3, 4), (4, 5), (5, 3)])
        components = strongly_connected_components(graph)
        union = sorted(v for component in components for v in component)
        assert union == [1, 2, 3, 4, 5]

    @given(random_digraph())
    @settings(max_examples=100, deadline=None)
    def test_scc_is_a_partition(self, graph):
        components = strongly_connected_components(graph)
        flattened = [v for component in components for v in component]
        assert sorted(flattened) == sorted(graph.vertices)
        assert len(flattened) == len(set(flattened))


class TestTopologicalSort:
    def test_order_respects_edges(self):
        graph = graph_from_edges([(1, 2), (1, 3), (3, 4), (2, 4)])
        order = topological_sort(graph)
        position = {vertex: index for index, vertex in enumerate(order)}
        for source, target in graph.edges():
            assert position[source] < position[target]

    def test_cyclic_graph_has_no_order(self):
        graph = graph_from_edges([(1, 2), (2, 1)])
        assert topological_sort(graph) is None

    def test_longest_path(self):
        graph = graph_from_edges([(1, 2), (2, 3), (3, 4), (1, 4)])
        assert longest_path_length(graph) == 3

    def test_longest_path_rejects_cycles(self):
        graph = graph_from_edges([(1, 2), (2, 1)])
        with pytest.raises(ValueError):
            longest_path_length(graph)

    def test_longest_path_of_empty_graph(self):
        assert longest_path_length(DirectedGraph()) == 0


class TestRankCertificate:
    def test_valid_certificate(self):
        graph = graph_from_edges([(1, 2), (2, 3)])
        rank = {1: (2,), 2: (1,), 3: (0,)}
        assert check_rank_certificate(graph, rank) == []

    def test_violating_edge_reported(self):
        graph = graph_from_edges([(1, 2)])
        rank = {1: (0,), 2: (1,)}
        assert check_rank_certificate(graph, rank) == [(1, 2)]

    def test_sink_exemption(self):
        graph = graph_from_edges([(1, 2)])
        rank = {1: (0,), 2: (5,)}
        assert check_rank_certificate(graph, rank, sinks={2}) == []

    def test_sink_with_outgoing_edges_is_a_violation(self):
        graph = graph_from_edges([(2, 1)])
        rank = {1: (0,), 2: (5,)}
        violations = check_rank_certificate(graph, rank, sinks={2})
        assert (2, 2) in violations
