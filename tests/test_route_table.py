"""The route table (:func:`repro.routing.base.route_table`) against the
plain enumeration it replaces.

The reference below is the ``reachable``/``next_hops`` loop that built the
dependency graph and discharged (V-1) before the table existed.  For every
registered kind and routing token, healthy and fault-injected, at 1-4 VCs,
the table must reproduce its hops, its edge list (order included) and
its (V-1) report, and ``reachable`` must answer exactly the pairs that
the independent search of :mod:`tests.routing_reference` finds.  The VC
relations compose their tables from their base routings, so they also
run at the sizes the benchmark uses.  The batch verdict, decided on the
table's port ids, must match the ``DirectedGraph`` cycle and escape-edge
search over the plain enumeration.
"""

import json
from collections import Counter
from hashlib import sha256
from pathlib import Path

import pytest

from repro.checking.graphs import (
    DirectedGraph,
    ReprRanks,
    cycle_and_escape_edges,
    edges_on_every_cycle,
    find_cycle_dfs,
)
from repro.core.dependency import (
    class_edges,
    dependency_id_graph,
    routing_dependency_graph,
)
from repro.core.obligations import check_v1_escape_coverage
from repro.core.spec import expand_matrix, spec_registry
from repro.network.mesh import Mesh2D
from repro.network.ring import Ring
from repro.network.torus import Torus2D
from repro.network.vc import VCTopology, port_of, vc_of
from repro.routing.adaptive import FullyAdaptiveMinimalRouting
from repro.routing.base import route_table
from repro.routing.escape import (
    EscapeChannelRouting,
    mesh_escape_routing,
    ring_escape_routing,
    torus_escape_routing,
)
from repro.routing.ring import ClockwiseRingRouting
from repro.routing.xy import XYRouting
from tests.routing_reference import occurring_pairs, reachable_pairs


def reference_graph(routing):
    graph = DirectedGraph()
    for port in routing.topology.ports:
        graph.add_vertex(port)
    for port in routing.topology.ports:
        for destination in routing.destinations():
            if port == destination:
                continue
            if not routing.reachable(port, destination):
                continue
            for successor in routing.next_hops(port, destination):
                graph.add_edge(port, successor)
    return graph


def reference_hops(routing):
    """The table's ``hops`` list, by the plain loop over every pair.

    ``s R d`` comes from :func:`occurring_pairs`, a search that never
    asks ``reachable``, so no table answers for itself.  The hops come
    from ``next_hops``, the skeleton over ``Port`` objects that the table
    runs over ids.
    """
    ports = routing.topology.ports
    index = {port: i for i, port in enumerate(ports)}
    pairs = occurring_pairs(routing)
    hops = []
    for port in ports:
        for destination in routing.destinations():
            if port != destination and (port, destination) in pairs:
                hops.append(tuple(index[hop] for hop in routing.next_hops(
                    port, destination)))
            else:
                hops.append(None)
    return hops


def reference_v1(relation, max_counterexamples=10):
    checks = 0
    counterexamples = []
    separated = relation.classes_separated
    for channel in relation.topology.ports:
        port = port_of(channel)
        if not port.is_input:
            continue
        escape_channel = relation.is_escape_resource(channel)
        for destination in relation.destinations():
            if channel == destination:
                continue
            if port.node == port_of(destination).node:
                continue
            if not relation.reachable(channel, destination):
                continue
            checks += 1
            hops = relation.next_hops(channel, destination)
            escapes = [hop for hop in hops
                       if relation.is_escape_resource(hop)]
            if not escapes:
                if len(counterexamples) < max_counterexamples:
                    counterexamples.append(
                        f"{channel} has no escape-class hop towards "
                        f"{destination}")
            elif (separated and escape_channel and not port.is_local
                    and len(escapes) != len(hops)):
                if len(counterexamples) < max_counterexamples:
                    counterexamples.append(
                        f"escape channel {channel} may leave the escape "
                        f"class towards {destination}")
    return checks, not counterexamples, counterexamples


def _terms():
    for entry in spec_registry().entries():
        dims = "3x3" if entry.dim_count == 2 else "5"
        # A ring cannot lose a second link without disconnecting.
        fault_counts = (0, 1, 2) if entry.dim_count == 2 else (0, 1)
        vc_counts = (1, 2, 3, 4) if entry.supports_vcs else (1,)
        for routing in entry.routings or (None,):
            for vcs in vc_counts:
                for faults in fault_counts:
                    term = f"{entry.kind}:{dims}"
                    if routing is not None:
                        term += f", routing={routing}"
                    if entry.supports_vcs:
                        term += f", vcs={vcs}"
                    term += f", faults={faults}, seed=1"
                    yield pytest.param(
                        term, id=f"{entry.kind}-{routing}-{vcs}vc-f{faults}")
    # The benchmark's VC meshes, and a dateline pair plus an adaptive class.
    for term in ("vc-mesh:5x5, vcs=2", "vc-mesh:5x5, vcs=4",
                 "vc-torus:4x4, vcs=3"):
        yield pytest.param(term, id=term.replace(", ", "-"))


@pytest.mark.parametrize("term", list(_terms()))
def test_table_reproduces_the_plain_enumeration(term):
    (spec,) = expand_matrix(term)
    routing = spec.build().routing
    reference = reference_graph(spec.build().routing)
    assert routing_dependency_graph(routing).edges() == reference.edges()
    assert route_table(routing).hops == reference_hops(spec.build().routing)
    assert reachable_pairs(routing) == occurring_pairs(routing)
    if isinstance(routing, EscapeChannelRouting):
        v1 = check_v1_escape_coverage(routing)
        assert (v1.checks, v1.holds, v1.counterexamples) \
            == reference_v1(spec.build().routing)


#: sha256 digests of every ``_terms()`` table, frozen from the loop-based
#: fill; regenerate with ``PYTHONPATH=src python -m tests.test_route_table``.
DIGESTS = Path(__file__).parent / "data" / "route_table_digests.json"


def table_digests(routing):
    """sha256 of the table's ``hops`` and of the graph's ordered edge list."""
    hops = repr(route_table(routing).hops)
    edges = "\n".join(f"{source} {target}" for source, target
                      in routing_dependency_graph(routing).edges())
    return {"hops": sha256(hops.encode()).hexdigest(),
            "edges": sha256(edges.encode()).hexdigest()}


@pytest.mark.parametrize("term", list(_terms()))
def test_table_matches_the_frozen_digests(term):
    (spec,) = expand_matrix(term)
    frozen = json.loads(DIGESTS.read_text())
    assert table_digests(spec.build().routing) == frozen[term]


@pytest.mark.parametrize("term", list(_terms()))
def test_id_decision_matches_the_port_graph_search(term):
    """The batch verdict on ids against the DirectedGraph search it
    replaces: the same query edges in the same order, the same cycle and
    the same escape edges, over the plain enumeration's graph."""
    (spec,) = expand_matrix(term)
    routing = spec.build().routing
    graph = dependency_id_graph(routing)
    reference = reference_graph(spec.build().routing)
    query, query_edges = graph, reference.edges()
    if isinstance(routing, EscapeChannelRouting):
        query = graph.restrict([vc_of(port) in routing.escape_vcs
                                for port in graph.vertices])
        query_edges = class_edges(reference, routing.escape_vcs)
        reference = DirectedGraph.from_edges(query_edges)
    assert query.edges() == query_edges
    cycle = find_cycle_dfs(reference).cycle or []
    core = list(zip(cycle, cycle[1:] + cycle[:1]))
    assert cycle_and_escape_edges(query, ReprRanks().ranks(graph.vertices)) \
        == (core, edges_on_every_cycle(reference, core))


def test_prone_terms_are_among_the_differential_cases():
    """The differential above meets cycles, with and without VCs."""
    prone = set()
    for param in _terms():
        (term,) = param.values
        (spec,) = expand_matrix(term)
        routing = spec.build().routing
        graph = dependency_id_graph(routing)
        if isinstance(routing, EscapeChannelRouting):
            graph = graph.restrict([vc_of(port) in routing.escape_vcs
                                    for port in graph.vertices])
        if cycle_and_escape_edges(graph, ReprRanks().ranks(graph.vertices))[0]:
            prone.add(isinstance(routing, EscapeChannelRouting))
    assert prone == {False, True}


def test_cached_ranks_sort_like_repr():
    """Ranks order like ``repr``, also after later calls bring values
    the earlier ones did not have."""
    ranker = ReprRanks()
    groups = [Mesh2D(2, 2).ports, VCTopology(Torus2D(3, 3), 2).ports,
              Ring(5, bidirectional=True).ports, Mesh2D(3, 3).ports]
    for vertices in groups + groups[::-1]:
        vertices = vertices[::3] + vertices[1::3] + vertices[2::3]
        ranks = ranker.ranks(vertices)
        assert sorted(range(len(vertices)), key=ranks.__getitem__) \
            == sorted(range(len(vertices)),
                      key=lambda i: repr(vertices[i]))


class _NoEscapeHop(EscapeChannelRouting):
    """Drops the escape hop wherever an adaptive hop exists (coverage)."""

    def _in_channel_hops(self, port, vc, adaptive_outs, escape_out):
        hops = super()._in_channel_hops(port, vc, adaptive_outs, escape_out)
        adaptive = [hop for hop in hops if hop[1] not in self.escape_vcs]
        return adaptive or hops


class _LeakyEscape(EscapeChannelRouting):
    """Lets escape channels take adaptive hops too (closure)."""

    def _in_channel_hops(self, port, vc, adaptive_outs, escape_out):
        hops = super()._in_channel_hops(port, vc, adaptive_outs, escape_out)
        if vc in self.escape_vcs and not port.is_local:
            hops += [(out, self.adaptive_vcs[0]) for out in adaptive_outs]
        return hops


def _broken(cls):
    mesh = Mesh2D(3, 3)
    return cls(VCTopology(mesh, 2), escape_routing=XYRouting(mesh),
               adaptive_routing=FullyAdaptiveMinimalRouting(mesh))


def _relations():
    ring = Ring(4, bidirectional=True)
    return [
        ("mesh-1vc", lambda: mesh_escape_routing(Mesh2D(3, 3), num_vcs=1)),
        ("torus-1vc", lambda: torus_escape_routing(Torus2D(4, 3), num_vcs=1)),
        ("ring-1vc", lambda: ring_escape_routing(ring, num_vcs=1)),
        ("clockwise-1vc", lambda: ring_escape_routing(
            ring, num_vcs=1, base_routing=ClockwiseRingRouting(ring))),
        ("no-escape-hop", lambda: _broken(_NoEscapeHop)),
        ("leaky-escape", lambda: _broken(_LeakyEscape)),
    ]


@pytest.mark.parametrize("make", [pytest.param(make, id=name)
                                  for name, make in _relations()])
@pytest.mark.parametrize("budget", [3, 10, 1000])
def test_v1_counterexamples_come_in_enumeration_order(make, budget):
    v1 = check_v1_escape_coverage(make(), max_counterexamples=budget)
    assert (v1.checks, v1.holds, v1.counterexamples) \
        == reference_v1(make(), max_counterexamples=budget)


def test_broken_relations_fail_v1():
    assert not check_v1_escape_coverage(_broken(_NoEscapeHop)).holds
    assert not check_v1_escape_coverage(_broken(_LeakyEscape)).holds


def _count_calls(routing, counts):
    """Count ``_route_from_in_port`` calls per (port, destination)."""
    original = routing._route_from_in_port

    def counted(current, destination):
        counts[id(routing), current, destination] += 1
        return original(current, destination)

    routing._route_from_in_port = counted


@pytest.mark.parametrize("make", [
    pytest.param(lambda: mesh_escape_routing(Mesh2D(3, 3), num_vcs=4),
                 id="mesh-4vc"),
    pytest.param(lambda: torus_escape_routing(Torus2D(4, 4), num_vcs=3),
                 id="torus-3vc"),
    pytest.param(lambda: ring_escape_routing(Ring(4, bidirectional=True),
                                             num_vcs=2), id="ring-2vc"),
    pytest.param(lambda: expand_matrix(
        "vc-mesh:3x3, vcs=4, faults=2")[0].build().routing,
        id="faulty-mesh-4vc"),
    pytest.param(lambda: expand_matrix(
        "vc-ring:6, vcs=2, faults=1")[0].build().routing,
        id="faulty-ring-2vc"),
])
def test_table_fill_asks_each_base_routing_once_per_base_pair(make):
    relation = make()
    counts = Counter()
    _count_calls(relation.escape_routing, counts)
    if relation.adaptive_routing is not None:
        _count_calls(relation.adaptive_routing, counts)
    route_table(relation)
    assert counts and max(counts.values()) == 1
    assert routing_dependency_graph(relation).edges() \
        == reference_graph(make()).edges()


def test_equal_hop_tuples_are_shared():
    table = route_table(mesh_escape_routing(Mesh2D(3, 3), num_vcs=2))
    rows = [row for row in table.hops if row is not None]
    assert len({id(row) for row in rows}) == len(set(rows))


def test_one_table_per_routing_and_a_fresh_graph_per_call():
    routing = XYRouting(Mesh2D(3, 3))
    assert route_table(routing) is route_table(routing)
    first = routing_dependency_graph(routing)
    second = routing_dependency_graph(routing)
    assert first is not second and not first.frozen
    assert first.edges() == second.edges()


if __name__ == "__main__":
    digests = {}
    for param in _terms():
        (term,) = param.values
        (spec,) = expand_matrix(term)
        digests[term] = table_digests(spec.build().routing)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
