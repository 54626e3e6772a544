"""Tests for the graph algorithms of the checking substrate: the DFS
decider, its certificates and the checker that re-checks them."""

import pytest
from hypothesis import given, settings, strategies as st

import repro.checking.graphs as graphs
from repro.checking.graphs import (
    Certificate,
    CertificateError,
    CycleSearchResult,
    DirectedGraph,
    IdGraph,
    ReprRanks,
    check_certificate,
    check_rank_certificate,
    cycle_and_escape_edges,
    find_cycle_dfs,
    kahn_peel,
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
        assert "b" in graph.successors("a")
        assert "a" not in graph.successors("b")

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
        assert 2 in sub.successors(1)
        assert 3 not in sub.successors(2)
        assert sub.vertex_count == 2

    def test_reverse(self):
        graph = graph_from_edges([(1, 2)])
        reversed_graph = graph.reverse()
        assert 1 in reversed_graph.successors(2)
        assert 2 not in reversed_graph.successors(1)

    def test_to_ids(self):
        graph = graph_from_edges([(1, 2), (2, 3), (1, 3)])
        ids = graph.to_ids([3, 2, 1])
        assert ids.vertices == [3, 2, 1]
        assert ids.successors == [[], [0], [1, 0]]
        assert ids.to_graph().edges() == [(2, 3), (1, 2), (1, 3)]


class TestCycleSearch:
    def test_empty_graph_is_acyclic(self):
        assert find_cycle_dfs(DirectedGraph()).acyclic

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
        assert find_cycle_dfs(graph).cycle == [1]

    def test_cycle_vertices_form_a_real_cycle(self):
        graph = graph_from_edges([(1, 2), (2, 3), (3, 4), (4, 2), (4, 5)])
        cycle = find_cycle_dfs(graph).cycle
        assert cycle is not None
        for index, vertex in enumerate(cycle):
            assert cycle[(index + 1) % len(cycle)] \
                in graph.successors(vertex)

    def test_disconnected_components(self):
        graph = graph_from_edges([(1, 2), (3, 4), (4, 3)])
        assert not find_cycle_dfs(graph).acyclic

    @given(random_digraph())
    @settings(max_examples=100, deadline=None)
    def test_checker_accepts_the_dfs_certificate(self, graph):
        """A checked numbering proves acyclicity and a checked cycle proves
        a cycle, so the checker is the oracle for every verdict."""
        ids = graph.to_ids()
        core, escape, certificate = cycle_and_escape_edges(
            ids, ReprRanks().ranks(ids.vertices))
        assert check_certificate(ids.successors, certificate) is None
        assert (certificate.cycle is None) is (not core)
        assert find_cycle_dfs(graph).acyclic is (not core)
        assert escape == reference_edges_on_every_cycle(graph, core)

    @given(random_digraph())
    @settings(max_examples=100, deadline=None)
    def test_reported_cycle_is_valid(self, graph):
        result = find_cycle_dfs(graph)
        if result.cycle is not None:
            cycle = result.cycle
            for index, vertex in enumerate(cycle):
                assert cycle[(index + 1) % len(cycle)] \
                    in graph.successors(vertex)


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

    @given(mixed_digraph())
    @settings(max_examples=300, deadline=None)
    def test_same_escape_edges(self, graph):
        cycle = find_cycle_dfs(graph).cycle or []
        ids = graph.to_ids()
        core, escape, _ = cycle_and_escape_edges(
            ids, ReprRanks().ranks(ids.vertices))
        assert core == list(zip(cycle, cycle[1:] + cycle[:1]))
        assert escape == reference_edges_on_every_cycle(graph, core)

    def test_successors_follow_repr_order_not_insertion_order(self):
        graph = graph_from_edges([(0, 30), (0, 4), (30, 0), (4, 4)])
        # "30" sorts before "4": the self-loop at 4 is never reached.
        assert find_cycle_dfs(graph).cycle == [30, 0]
        assert reference_find_cycle_dfs(graph).cycle == [30, 0]


class TestKahnPeel:
    def test_order_respects_edges(self):
        graph = graph_from_edges([(1, 2), (1, 3), (3, 4), (2, 4)])
        order, residue = kahn_peel(graph.in_degrees(), {
            vertex: graph.successors(vertex) for vertex in graph.vertices})
        position = {vertex: index for index, vertex in enumerate(order)}
        assert residue == []
        for source, target in graph.edges():
            assert position[source] < position[target]

    def test_cyclic_graph_has_no_order(self):
        order, residue = kahn_peel({0: 0, 1: 2, 2: 1},
                                   {0: [1], 1: [2], 2: [1]})
        assert order == [0] and sorted(residue) == [1, 2]


class TestRankCertificate:
    def test_valid_certificate(self):
        assert check_rank_certificate([[1], [2], []], [(2,), (1,), (0,)]) \
            == []

    def test_violating_edge_reported(self):
        assert check_rank_certificate([[1], []], [(0,), (1,)]) == [(0, 1)]

    def test_skipped_edge_is_exempt(self):
        assert check_rank_certificate([[1], [0]], [1, 0], skip=(1, 0)) == []


def _certified(successors):
    """The id search's answer and certificate on ``successors``."""
    ranks = list(range(len(successors)))
    return cycle_and_escape_edges(IdGraph(ranks, successors), ranks)


class TestCertificateChecker:
    """Mutation tests: each kind of wrong evidence is rejected, naming the
    check that failed."""

    #: A 4-cycle 0 -> 1 -> 2 -> 3 -> 0 with a chord 1 -> 3: (0, 1) and
    #: (3, 0) are on every cycle, (1, 2) and (2, 3) are not.
    CHORDED = [[1], [2, 3], [3], [0]]

    def test_the_search_certificates_are_accepted(self):
        dag = [[1, 2], [2], []]
        for successors in (dag, self.CHORDED):
            _, _, certificate = _certified(successors)
            assert check_certificate(successors, certificate) is None

    def test_a_numbering_with_one_edge_reversed_is_rejected(self):
        dag = [[1, 2], [2], []]
        _, _, certificate = _certified(dag)
        numbering = list(certificate.numbering)
        numbering[1], numbering[2] = numbering[2], numbering[1]
        assert check_certificate(dag, Certificate(numbering=numbering)) \
            == "numbering: edge 1 -> 2 does not descend"

    def test_a_cycle_using_an_edge_not_in_the_graph_is_rejected(self):
        _, _, certificate = _certified(self.CHORDED)
        certificate.cycle = [0, 2, 3]
        assert check_certificate(self.CHORDED, certificate) \
            == "cycle: edge 0 -> 2 is not in the graph"
        assert check_certificate([[1], []], Certificate(cycle=[0, 1])) \
            == "cycle: edge 1 -> 0 is not in the graph"

    def test_a_claimed_escape_edge_whose_removal_leaves_a_cycle(self):
        core, escape, certificate = _certified(self.CHORDED)
        assert escape == [(0, 1), (3, 0)]
        # Claim (1, 2) as an escape edge too, with some numbering.
        certificate.detours.pop((1, 2))
        certificate.escapes[(1, 2)] = certificate.escapes[(0, 1)]
        assert check_certificate(self.CHORDED, certificate).startswith(
            "escape edge 1 -> 2: edge ")

    def test_an_escape_edge_left_out_is_rejected(self):
        _, _, certificate = _certified(self.CHORDED)
        del certificate.escapes[(3, 0)]
        assert check_certificate(self.CHORDED, certificate) \
            == ("escape split: cycle edge 3 -> 0 needs one numbering or "
                "one detour")

    def test_a_detour_through_its_own_edge_is_rejected(self):
        _, _, certificate = _certified(self.CHORDED)
        certificate.detours[(1, 2)] = [0, 1, 2, 3]
        assert check_certificate(self.CHORDED, certificate) \
            == "detour of 1 -> 2: it uses 1 -> 2"

    def test_a_wrong_search_raises_certificate_error(self, monkeypatch):
        """``find_cycle_dfs`` reports nothing the checker rejected."""
        monkeypatch.setattr(graphs, "_dfs", lambda roots, successors: (
            None, [0] * len(successors), 0))
        with pytest.raises(CertificateError, match="numbering: edge 1 -> 2"):
            find_cycle_dfs(graph_from_edges([(1, 2)]))


class TestEscapeSearch:
    def test_one_second_cycle_rules_out_several_candidates(self,
                                                           monkeypatch):
        """The cycle 0..4 shares only 0 -> 1 with the cycle 0 -> 1 -> 5:
        the first escape search, which skips 1 -> 2, finds that second
        cycle and so rules out 2 -> 3, 3 -> 4 and 4 -> 0 as well."""
        successors = [[1], [2, 5], [3], [4], [0], [0]]
        calls = []
        search = graphs._dfs
        monkeypatch.setattr(graphs, "_dfs", lambda roots, rows: (
            calls.append(1) or search(roots, rows)))
        core, escape, certificate = _certified(successors)
        assert core == [(1, 2), (2, 3), (3, 4), (4, 0), (0, 1)]
        assert escape == [(0, 1)]
        assert len(calls) == 3  # the verdict, then skipping 1 -> 2, 0 -> 1
        assert list(certificate.detours) == core[:4]
        assert all(detour == [1, 5, 0]
                   for detour in certificate.detours.values())
        assert check_certificate(successors, certificate) is None
