"""Tests for the wormhole switching policy (the paper's ``Swh``)."""

import pytest

from repro.core.configuration import NOT_INJECTED
from repro.core.deadlock import is_deadlock
from repro.core.measure import flit_hop_measure, route_length_measure
from repro.hermes.instantiation import build_hermes_instance
from repro.network.port import Direction, Port, PortName
from repro.switching.wormhole import WormholeSwitching


@pytest.fixture
def instance():
    return build_hermes_instance(3, 3, buffer_capacity=2)


def routed_config(instance, travels, capacity=None):
    config = instance.initial_configuration(travels, capacity=capacity)
    return instance.routing.route_configuration(config)


class TestSingleMessage:
    def test_header_is_injected_on_first_step(self, instance):
        travel = instance.make_travel((0, 0), (2, 2), num_flits=3)
        config = routed_config(instance, [travel], capacity=1)
        switching = WormholeSwitching()
        after = switching.step(config)
        record = after.progress[travel.travel_id]
        assert record.positions[0] == 0
        # With 1-flit buffers the second flit cannot enter yet.
        assert record.positions[1] == NOT_INJECTED

    def test_two_flits_enter_together_with_deeper_buffers(self, instance):
        travel = instance.make_travel((0, 0), (2, 2), num_flits=3)
        config = routed_config(instance, [travel], capacity=2)
        switching = WormholeSwitching()
        after = switching.step(config)
        record = after.progress[travel.travel_id]
        # The injection port has two buffers, so header and first body flit
        # both enter on the first step; the third flit has to wait.
        assert record.positions[0] == 0
        assert record.positions[1] == 0
        assert record.positions[2] == NOT_INJECTED

    def test_worm_advances_pipelined(self, instance):
        travel = instance.make_travel((0, 0), (2, 2), num_flits=3)
        config = routed_config(instance, [travel], capacity=1)
        switching = WormholeSwitching()
        for _ in range(4):
            config = switching.step(config)
        record = config.progress[travel.travel_id]
        # After 4 steps the header is at route index 3 and the followers
        # trail right behind it, one port apart (1-flit buffers).
        assert record.positions[0] == 3
        assert record.positions[1] == 2
        assert record.positions[2] == 1

    def test_message_arrives_and_moves_to_A(self, instance):
        travel = instance.make_travel((0, 0), (1, 0), num_flits=2)
        config = routed_config(instance, [travel])
        switching = WormholeSwitching()
        steps = 0
        while config.travels and steps < 50:
            config = switching.step(config)
            steps += 1
        assert [t.travel_id for t in config.arrived] == [travel.travel_id]
        assert config.state.is_empty()

    def test_single_flit_message_to_same_node(self, instance):
        travel = instance.make_travel((1, 1), (1, 1), num_flits=1)
        config = routed_config(instance, [travel])
        switching = WormholeSwitching()
        steps = 0
        while config.travels and steps < 10:
            config = switching.step(config)
            steps += 1
        assert len(config.arrived) == 1

    def test_measure_decreases_every_step(self, instance):
        travel = instance.make_travel((0, 0), (2, 2), num_flits=4)
        config = routed_config(instance, [travel])
        switching = WormholeSwitching()
        previous = flit_hop_measure(config)
        while config.travels:
            config = switching.step(config)
            current = flit_hop_measure(config)
            assert current < previous
            previous = current

    def test_paper_measure_never_increases(self, instance):
        travel = instance.make_travel((0, 0), (2, 2), num_flits=4)
        config = routed_config(instance, [travel])
        switching = WormholeSwitching()
        previous = route_length_measure(config)
        while config.travels:
            config = switching.step(config)
            current = route_length_measure(config)
            assert current <= previous
            previous = current


class TestOwnershipAndBlocking:
    def test_port_owned_by_one_packet_only(self, instance):
        # Two messages that share the column 1 southbound path.
        t1 = instance.make_travel((0, 0), (1, 2), num_flits=4)
        t2 = instance.make_travel((1, 0), (1, 2), num_flits=4)
        config = routed_config(instance, [t1, t2], capacity=1)
        switching = WormholeSwitching()
        for _ in range(20):
            if not config.travels:
                break
            config = switching.step(config)
            for port, state in config.state.items():
                owners = {flit.travel_id for flit in state.buffer}
                assert len(owners) <= 1

    def test_blocked_message_waits(self, instance):
        # A long message occupies the path; the second cannot enter the
        # shared port until the first drains.
        t1 = instance.make_travel((0, 0), (2, 0), num_flits=6)
        t2 = instance.make_travel((0, 1), (2, 0), num_flits=2)
        config = routed_config(instance, [t1, t2], capacity=1)
        switching = WormholeSwitching()
        steps = 0
        while config.travels and steps < 100:
            config = switching.step(config)
            config.check_consistency()
            steps += 1
        assert not config.travels
        assert len(config.arrived) == 2

    def test_no_deadlock_with_xy_routing(self, instance):
        travels = [instance.make_travel((x, y),
                                        (2 - x, 2 - y), num_flits=3)
                   for x in range(3) for y in range(3) if (x, y) != (1, 1)]
        config = routed_config(instance, travels, capacity=1)
        switching = WormholeSwitching()
        steps = 0
        while config.travels and steps < 500:
            assert not is_deadlock(config, switching)
            config = switching.step(config)
            steps += 1
        assert not config.travels

    def test_can_progress_false_only_when_stuck(self, instance):
        travel = instance.make_travel((0, 0), (2, 2), num_flits=2)
        config = routed_config(instance, [travel])
        switching = WormholeSwitching()
        while config.travels:
            assert switching.can_progress(config)
            config = switching.step(config)
        assert not switching.can_progress(config)


class TestSingleTravelStepper:
    def test_advance_travel_moves_only_that_travel(self, instance):
        t1 = instance.make_travel((0, 0), (2, 0), num_flits=2)
        t2 = instance.make_travel((0, 2), (2, 2), num_flits=2)
        config = routed_config(instance, [t1, t2])
        switching = WormholeSwitching()
        after = switching.advance_travel(config, t1.travel_id)
        assert after is not None
        assert after.progress[t1.travel_id].positions[0] == 0
        assert after.progress[t2.travel_id].positions[0] == NOT_INJECTED
        # The original configuration is untouched.
        assert config.progress[t1.travel_id].positions[0] == NOT_INJECTED

    def test_advance_travel_returns_none_when_blocked(self, instance):
        t1 = instance.make_travel((0, 0), (2, 0), num_flits=2)
        config = routed_config(instance, [t1], capacity=1)
        switching = WormholeSwitching()
        # Fill the first route port with a foreign flit so injection blocks.
        from repro.network.flit import Flit, FlitKind

        first_port = config.progress[t1.travel_id].route[0]
        config.state.accept_flit(first_port, Flit(999, 0, FlitKind.HEADER))
        assert switching.advance_travel(config, t1.travel_id) is None

    def test_movable_travels(self, instance):
        t1 = instance.make_travel((0, 0), (2, 0), num_flits=2)
        t2 = instance.make_travel((2, 2), (0, 2), num_flits=2)
        config = routed_config(instance, [t1, t2])
        switching = WormholeSwitching()
        assert set(switching.movable_travels(config)) == {t1.travel_id,
                                                          t2.travel_id}

    def test_advance_unknown_travel_returns_none(self, instance):
        t1 = instance.make_travel((0, 0), (2, 0), num_flits=2)
        config = routed_config(instance, [t1])
        switching = WormholeSwitching()
        assert switching.advance_travel(config, 424242) is None
