"""The GeNoC wormhole step against a step-by-step reference.

``tests/wormhole_reference.py`` holds the switching step as first
written: every pending travel visited in order through the public
``PortState`` API.  Here the engine runs seeded random workloads in place
(visiting only worms that can move, one call per flit move, arrivals and
counters updated from the flits that moved) while the reference steps a
copy beside it.  After every step the two must agree on flit positions,
every port's FIFO and owner, ``T`` and ``A`` in order, ``Ω``, and the
``advance_travel`` successor of every pending travel; the engine's
``StepRecord`` counters must equal a rescan.
"""

import random

import pytest

from repro.core.configuration import (
    Configuration,
    NOT_INJECTED,
    TravelProgress,
)
from repro.core.deadlock import is_deadlock
from repro.core.genoc import GeNoCEngine
from repro.core.measure import flit_hop_measure
from repro.core.travel import Travel
from repro.hermes.instantiation import build_hermes_instance
from repro.network.port import Direction, Port, PortName
from repro.network.vc import VirtualChannel
from repro.switching.virtual_cut_through import VirtualCutThroughSwitching
from repro.vcnoc.instantiation import build_vc_mesh_instance

from tests.wormhole_reference import ReferenceWormhole, snapshot


def random_travels(instance, rng, count, max_flits):
    nodes = [(node.x, node.y) for node in instance.topology.nodes]
    travels = []
    while len(travels) < count:
        source, target = rng.choice(nodes), rng.choice(nodes)
        if source != target:
            travels.append(instance.make_travel(
                source, target, num_flits=rng.randint(1, max_flits)))
    return travels


def hermes_cases():
    cases = []
    for seed in range(24):
        rng = random.Random(seed)
        width, height = rng.randint(2, 4), rng.randint(2, 4)
        capacity = rng.randint(1, 3)
        messages = rng.randint(4, 4 * width * height)
        cases.append(pytest.param(
            "Swh", width, height, capacity, messages, 5, seed,
            id=f"Swh-{width}x{height}-cap{capacity}-m{messages}-s{seed}"))
    for seed in range(4):
        cases.append(pytest.param("Svct", 3, 3, 4, 24, 4, seed,
                                  id=f"Svct-3x3-cap4-m24-s{seed}"))
    for seed in range(6):
        capacity = 1 + seed % 3
        cases.append(pytest.param(
            "Svc-wh", 3, 3, capacity, 30, 5, seed,
            id=f"Svc-wh-3x3-2vc-cap{capacity}-m30-s{seed}"))
    return cases


def build(kind, width, height, capacity):
    if kind == "Svc-wh":
        return build_vc_mesh_instance(width, height, num_vcs=2,
                                      buffer_capacity=capacity)
    switching = VirtualCutThroughSwitching() if kind == "Svct" else None
    return build_hermes_instance(width, height, buffer_capacity=capacity,
                                 switching=switching)


def assert_same(config, expected, switching, reference):
    assert snapshot(config) == snapshot(expected)
    assert is_deadlock(config, switching) == reference.is_deadlock(expected)
    for travel in config.travels:
        tid = travel.travel_id
        ours = switching.advance_travel(config, tid)
        theirs = reference.advance_travel(expected, tid)
        assert (ours is None) == (theirs is None), f"travel {tid}"
        if ours is not None:
            assert snapshot(ours) == snapshot(theirs), f"travel {tid}"


@pytest.mark.parametrize(
    "kind,width,height,capacity,messages,max_flits,seed", hermes_cases())
def test_engine_step_matches_reference(kind, width, height, capacity,
                                       messages, max_flits, seed):
    instance = build(kind, width, height, capacity)
    rng = random.Random(1000 + seed)
    run_beside_reference(instance, kind,
                         random_travels(instance, rng, messages, max_flits))


@pytest.mark.parametrize("seed", range(4))
def test_sources_inside_other_routes(seed):
    """Travels may start at any in-port, so a worm queued at its source
    can wait on a port that other worms cross mid-route: the source then
    frees and fills again within one step, and the queued worm is
    admitted only if it is free at its own turn."""
    instance = build("Swh", 3, 3, 1)
    rng = random.Random(seed)
    in_ports = [port for port in instance.topology.ports if port.is_input]
    destinations = instance.topology.local_out_ports()
    travels = []
    while len(travels) < 30:
        source, destination = rng.choice(in_ports), rng.choice(destinations)
        if source.node == destination.node:
            continue
        route = instance.routing.compute_route(source, destination)
        travels.append(Travel(travel_id=len(travels), source=source,
                              destination=destination,
                              num_flits=rng.randint(1, 3),
                              route=tuple(route)))
    assert any(not travel.source.is_local for travel in travels)
    run_beside_reference(instance, "Swh", travels)


def test_credit_refusal_does_not_end_a_source_queue():
    """Under ``Svc-wh`` a header entering a cardinal out-channel also
    needs a downstream credit, so a worm queued at such a source can be
    refused while the source is free.  The credit can free later in the
    same step, and then the next worm queued there enters, as in the
    reference.  Travel 0 waits on the credit that travel 1 (in the
    downstream in-channel) frees at its turn; travel 2 then enters."""
    instance = build("Svc-wh", 2, 2, 1)
    topology = instance.topology
    source = VirtualChannel(Port(0, 0, PortName.EAST, Direction.OUT), 0)
    downstream = topology.link_target(source)
    exit_channel = VirtualChannel(
        Port(1, 0, PortName.LOCAL, Direction.OUT), 0)
    route = (source, downstream, exit_channel)
    travels = [Travel(travel_id=tid, source=source, destination=exit_channel,
                      num_flits=1, route=route) for tid in range(3)]
    progress = {travel.travel_id: TravelProgress(travel, [NOT_INJECTED])
                for travel in travels}
    progress[1].positions[0] = 1
    state = instance.empty_state()
    state.accept_flit(downstream, progress[1].flits[0])
    config = Configuration(travels, state, progress=progress)
    config.check_consistency()

    expected = ReferenceWormhole("Svc-wh").step(config)
    assert [expected.progress[tid].positions for tid in range(3)] == [
        [NOT_INJECTED], [2], [0]]
    instance.switching.advance(config)
    assert snapshot(config) == snapshot(expected)


def run_beside_reference(instance, kind, travels):
    """Run the engine on ``travels`` and the reference step beside it,
    comparing after every step."""
    reference = ReferenceWormhole(kind)
    switching = instance.switching
    config = instance.initial_configuration(travels)
    expected = [instance.routing.route_configuration(config)]
    assert_same(expected[0], expected[0], switching, reference)

    def compare(step, current):
        expected.append(reference.step(expected[-1]))
        assert_same(current, expected[-1], switching, reference)
        current.check_consistency()

    engine = GeNoCEngine(instance.injection, instance.routing, switching,
                         max_steps=2000)
    result = engine.run(config, on_step=compare)
    assert result.steps == len(expected) - 1
    assert result.deadlocked == reference.is_deadlock(expected[-1])
    assert result.measures == [flit_hop_measure(c) for c in expected]
    assert [(r.step, r.pending, r.arrived, r.flits_in_network)
            for r in result.history] == [
        (step, len(c.travels), len(c.arrived), c.state.total_flits())
        for step, c in enumerate(expected[1:], start=1)]


def test_same_step_handover_is_exercised():
    """The workloads above reach the case a skipping step must not miss:
    a worm's tail leaves its source and the next worm queued there enters
    in the same step (its turn comes after the leaving worm's).  On a 2x2
    mesh with one-flit buffers and 16 messages the reference does so."""
    instance = build_hermes_instance(2, 2, buffer_capacity=1)
    travels = random_travels(instance, random.Random(5), 16, 5)
    config = instance.routing.route_configuration(
        instance.initial_configuration(travels))
    reference = ReferenceWormhole("Swh")
    handovers = 0
    while config.travels:
        successor = reference.step(config)
        for travel in config.travels:
            tid = travel.travel_id
            held = config.state[travel.source].owner
            if (config.progress[tid].positions[0] == NOT_INJECTED
                    and successor.progress[tid].positions[0] == 0
                    and held not in (None, tid)):
                handovers += 1
        config = successor
    assert handovers > 0
