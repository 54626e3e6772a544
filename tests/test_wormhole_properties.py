"""Property-based tests of the wormhole model's structural invariants."""

import random

from hypothesis import given, settings, strategies as st

from repro.core.measure import flit_hop_measure, route_length_measure
from repro.hermes.instantiation import build_hermes_instance
from repro.switching.wormhole import WormholeSwitching


@st.composite
def workload(draw):
    """A random mesh size, buffer depth and message list."""
    width = draw(st.integers(2, 3))
    height = draw(st.integers(2, 3))
    capacity = draw(st.integers(1, 3))
    instance = build_hermes_instance(width, height, buffer_capacity=capacity)
    nodes = [(x, y) for x in range(width) for y in range(height)]
    count = draw(st.integers(1, 6))
    travels = []
    for _ in range(count):
        source = draw(st.sampled_from(nodes))
        target = draw(st.sampled_from(nodes))
        if source == target:
            continue
        flits = draw(st.integers(1, 4))
        travels.append(instance.make_travel(source, target, num_flits=flits))
    return instance, travels


def run_with_invariant(instance, travels, invariant):
    """Run to completion, calling ``invariant(config)`` after every step."""
    config = instance.routing.route_configuration(
        instance.initial_configuration(travels))
    switching = instance.switching
    steps = 0
    while config.travels and steps < 500:
        config = switching.step(config)
        invariant(config)
        steps += 1
    assert not config.travels, "workload did not evacuate within 500 steps"
    return config


class TestWormInvariants:
    @given(workload())
    @settings(max_examples=40, deadline=None)
    def test_state_and_progress_stay_consistent(self, data):
        instance, travels = data
        if not travels:
            return
        run_with_invariant(instance, travels,
                           lambda config: config.check_consistency())

    @given(workload())
    @settings(max_examples=40, deadline=None)
    def test_worm_contiguity(self, data):
        """Consecutive flits are never more than one route hop apart.

        This is the invariant that makes the port-level deadlock analysis
        sound: a port stays owned by a worm from header entry to tail exit.
        """
        instance, travels = data
        if not travels:
            return

        def contiguous(config):
            for record in config.progress.values():
                positions = [p for p in record.positions]
                for earlier, later in zip(positions, positions[1:]):
                    if later == record.ejected_position:
                        continue
                    if later < 0 or earlier < 0:
                        continue
                    if earlier == record.ejected_position:
                        continue
                    assert earlier - later <= 1

        run_with_invariant(instance, travels, contiguous)

    @given(workload())
    @settings(max_examples=40, deadline=None)
    def test_flit_order_never_violated(self, data):
        instance, travels = data
        if not travels:
            return

        def ordered(config):
            for record in config.progress.values():
                record.check_flit_order()

        run_with_invariant(instance, travels, ordered)

    @given(workload())
    @settings(max_examples=40, deadline=None)
    def test_refined_measure_strictly_decreases(self, data):
        instance, travels = data
        if not travels:
            return
        config = instance.routing.route_configuration(
            instance.initial_configuration(travels))
        switching = instance.switching
        previous = flit_hop_measure(config)
        steps = 0
        while config.travels and steps < 500:
            config = switching.step(config)
            current = flit_hop_measure(config)
            assert current < previous
            previous = current
            steps += 1

    @given(workload())
    @settings(max_examples=40, deadline=None)
    def test_paper_measure_is_monotone(self, data):
        instance, travels = data
        if not travels:
            return
        config = instance.routing.route_configuration(
            instance.initial_configuration(travels))
        switching = instance.switching
        previous = route_length_measure(config)
        steps = 0
        while config.travels and steps < 500:
            config = switching.step(config)
            current = route_length_measure(config)
            assert current <= previous
            previous = current
            steps += 1

    @given(workload())
    @settings(max_examples=40, deadline=None)
    def test_every_message_arrives_exactly_once(self, data):
        instance, travels = data
        if not travels:
            return
        result = instance.run(travels, max_steps=1000)
        assert result.evacuated
        arrived = [t.travel_id for t in result.final.arrived]
        assert sorted(arrived) == sorted(t.travel_id for t in travels)
        assert len(set(arrived)) == len(arrived)

    @given(workload())
    @settings(max_examples=30, deadline=None)
    def test_single_travel_steps_commute_with_arrivals(self, data):
        """Advancing travels one at a time also evacuates everything."""
        instance, travels = data
        if not travels:
            return
        config = instance.routing.route_configuration(
            instance.initial_configuration(travels))
        switching = instance.switching
        rng = random.Random(0)
        steps = 0
        while config.travels and steps < 3000:
            movable = switching.movable_travels(config)
            assert movable, "XY routing must never deadlock"
            chosen = rng.choice(movable)
            config = switching.advance_travel(config, chosen)
            steps += 1
        assert not config.travels
