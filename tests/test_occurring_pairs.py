"""One ``s R d`` for every routing: ``reachable`` answers exactly the pairs
that occur on routes from local in-ports.

The reference, :func:`tests.routing_reference.occurring_pairs`, is a plain
breadth-first search over the public ``next_hops`` and shares no code with
the route table that ``reachable`` reads.  It runs over every routing
token, healthy and fault-injected, on meshes, rings, the torus and the VC
relations.
"""

import pytest

from repro.core.spec import expand_matrix
from repro.network.ring import Ring
from repro.network.torus import Torus2D
from repro.routing.ring import ShortestPathRingRouting
from repro.routing.torus import TorusAdaptiveMinimalRouting, TorusXYRouting
from tests.routing_reference import occurring_pairs, reachable_pairs

MATRIX = (
    "mesh:3x3, routing=[xy,yx,west-first,north-last,negative-first,"
    "odd-even,adaptive,zigzag], faults=0..2, seed=0..1; "
    "mesh:4x4, routing=[xy,yx,west-first,north-last,negative-first,"
    "odd-even,adaptive,zigzag], faults=0..2, seed=0..1; "
    "ring:4..8, routing=[chain,clockwise], faults=0..1, seed=0..1; "
    "vc-mesh:3x3, vcs=1..3; vc-torus:3x3, vcs=1..3; vc-ring:5, vcs=1..3"
)


def _routings():
    for spec in expand_matrix(MATRIX):
        yield pytest.param(lambda spec=spec: spec.build().routing,
                           id=spec.scenario_name())
    yield pytest.param(lambda: TorusXYRouting(Torus2D(4, 4)), id="torus-xy")
    yield pytest.param(lambda: TorusAdaptiveMinimalRouting(Torus2D(4, 3)),
                       id="torus-adaptive")
    yield pytest.param(
        lambda: ShortestPathRingRouting(Ring(6, bidirectional=True)),
        id="shortest-ring")


@pytest.mark.parametrize("make", list(_routings()))
def test_reachable_is_the_occurring_pairs(make):
    routing = make()
    assert reachable_pairs(routing) == occurring_pairs(routing)

