"""Tests for network states and configurations."""

import pytest

from repro.core.configuration import (
    Configuration,
    NOT_INJECTED,
    TravelProgress,
    initial_configuration,
)
from repro.core.state import NetworkState
from repro.core.travel import Travel
from repro.network.flit import Flit, FlitKind
from repro.network.mesh import Mesh2D
from repro.network.port import Direction, Port, PortName


@pytest.fixture
def mesh():
    return Mesh2D(2, 2)


@pytest.fixture
def state(mesh):
    return NetworkState.empty(mesh, capacity=2)


def _travel(mesh, source_node, dest_node, num_flits=2, travel_id=1):
    source = mesh.node_at(*source_node).local_in
    dest = mesh.node_at(*dest_node).local_out
    return Travel(travel_id=travel_id, source=source, destination=dest,
                  num_flits=num_flits)


class TestNetworkState:
    def test_empty_state_covers_every_port(self, mesh, state):
        assert len(state) == mesh.port_count
        assert state.is_empty()
        assert state.total_flits() == 0

    def test_per_port_capacity_override(self, mesh):
        special = Port(0, 0, PortName.LOCAL, Direction.IN)
        state = NetworkState.empty(mesh, capacity=1,
                                   capacities={special: 5})
        assert state[special].buffer.capacity == 5
        other = Port(1, 1, PortName.LOCAL, Direction.IN)
        assert state[other].buffer.capacity == 1

    def test_accept_and_release(self, state):
        port = Port(0, 0, PortName.EAST, Direction.OUT)
        flit = Flit(7, 0, FlitKind.HEADER)
        state.accept_flit(port, flit)
        assert state.total_flits() == 1
        assert not state.is_available(port)  # owned
        assert state.accepts(port, 7)
        assert not state.accepts(port, 8)
        assert state.move_flit(port, None, flit) is True  # ejected, drained
        assert state.is_empty()

    def test_move_flit_is_one_checked_move(self, state):
        """``move_flit`` injects, hops and ejects a flit, keeps
        ``flit_count`` and reports the source draining; a full or foreign
        target raises ``FlitBufferError`` like ``PortState.accept`` and
        changes nothing."""
        from repro.network.buffers import FlitBufferError

        local_in = Port(0, 0, PortName.LOCAL, Direction.IN)
        east_out = Port(0, 0, PortName.EAST, Direction.OUT)
        header, tail = Flit(7, 0, FlitKind.HEADER), Flit(7, 1, FlitKind.TAIL)
        assert state.move_flit(None, local_in, header) is False
        assert state.move_flit(None, local_in, tail) is False
        assert state.flit_count == 2 and state[local_in].owner == 7
        with pytest.raises(FlitBufferError, match="owned by travel 7"):
            state.move_flit(None, local_in, Flit(8, 0, FlitKind.HEADER))
        assert state.move_flit(local_in, east_out, header) is False
        assert state.move_flit(local_in, east_out, tail) is True
        assert state[local_in].owner is None
        with pytest.raises(FlitBufferError, match="or full"):
            state.move_flit(None, east_out, Flit(7, 2, FlitKind.TAIL))
        assert state.move_flit(east_out, None, header) is False
        assert state.flit_count == 1 == state.total_flits()

    def test_unavailable_ports(self, state):
        port = Port(0, 0, PortName.EAST, Direction.OUT)
        state.accept_flit(port, Flit(7, 0, FlitKind.HEADER))
        assert state.unavailable_ports() == [port]
        assert state.occupied_ports() == [port]

    def test_flits_of(self, state):
        port = Port(0, 0, PortName.EAST, Direction.OUT)
        state.accept_flit(port, Flit(7, 0, FlitKind.HEADER))
        state.accept_flit(port, Flit(7, 1, FlitKind.TAIL))
        found = state.flits_of(7)
        assert len(found) == 2
        assert all(p == port for p, _ in found)
        assert state.flits_of(99) == []

    def test_occupancy_map(self, state):
        port = Port(1, 1, PortName.LOCAL, Direction.IN)
        state.accept_flit(port, Flit(3, 0, FlitKind.HEADER))
        occupancy = state.occupancy_map()
        assert occupancy[port] == 1
        assert sum(occupancy.values()) == 1

    def test_copy_is_deep(self, state):
        port = Port(0, 0, PortName.EAST, Direction.OUT)
        state.accept_flit(port, Flit(7, 0, FlitKind.HEADER))
        clone = state.copy()
        clone.move_flit(port, None, Flit(7, 0, FlitKind.HEADER))
        assert state.total_flits() == 1
        assert clone.total_flits() == 0

    def test_contains_and_iteration(self, mesh, state):
        assert Port(0, 0, PortName.EAST, Direction.OUT) in state
        assert Port(5, 5, PortName.EAST, Direction.OUT) not in state
        assert set(state.ports) == set(mesh.ports)

    def test_str_of_empty_state(self, state):
        assert "empty" in str(state)


class TestConfiguration:
    def test_initial_configuration(self, mesh, state):
        travel = _travel(mesh, (0, 0), (1, 1))
        config = initial_configuration([travel], state)
        assert config.pending_count == 1
        assert config.arrived_count == 0
        assert not config.is_finished()
        assert config.T == [travel]
        assert config.A == []
        assert config.ST is state

    def test_duplicate_travel_ids_rejected(self, mesh, state):
        travels = [_travel(mesh, (0, 0), (1, 1), travel_id=1),
                   _travel(mesh, (1, 1), (0, 0), travel_id=1)]
        with pytest.raises(ValueError):
            initial_configuration(travels, state)

    def test_travel_by_id(self, mesh, state):
        travel = _travel(mesh, (0, 0), (1, 1), travel_id=5)
        config = initial_configuration([travel], state)
        assert config.travel_by_id(5) is travel
        with pytest.raises(KeyError):
            config.travel_by_id(6)

    def test_all_routed(self, mesh, state):
        travel = _travel(mesh, (0, 0), (1, 1))
        config = initial_configuration([travel], state)
        assert not config.all_routed()

    def test_is_finished_when_empty(self, state):
        config = Configuration(travels=[], state=state, arrived=[])
        assert config.is_finished()

    def test_copy_is_deep(self, mesh, state):
        travel = _travel(mesh, (0, 0), (1, 1))
        config = initial_configuration([travel], state)
        clone = config.copy()
        clone.travels.clear()
        assert config.pending_count == 1

    def test_consistency_check_detects_mismatch(self, mesh, state):
        # A routed travel whose progress claims a flit at a port where the
        # state has none.
        source = mesh.node_at(0, 0).local_in
        dest = mesh.node_at(1, 0).local_out
        route = (source, Port(0, 0, PortName.EAST, Direction.OUT),
                 Port(1, 0, PortName.WEST, Direction.IN), dest)
        travel = Travel(travel_id=1, source=source, destination=dest,
                        num_flits=1, route=route)
        record = TravelProgress.initial(travel)
        record.positions[0] = 1  # claims the flit is at the E out-port
        config = Configuration(travels=[travel], state=state, arrived=[],
                               progress={1: record})
        with pytest.raises(AssertionError):
            config.check_consistency()

    def test_consistency_check_passes_for_matching_state(self, mesh, state):
        source = mesh.node_at(0, 0).local_in
        dest = mesh.node_at(1, 0).local_out
        route = (source, Port(0, 0, PortName.EAST, Direction.OUT),
                 Port(1, 0, PortName.WEST, Direction.IN), dest)
        travel = Travel(travel_id=1, source=source, destination=dest,
                        num_flits=1, route=route)
        record = TravelProgress.initial(travel)
        record.positions[0] = 1
        state.accept_flit(route[1], travel.flits()[0])
        config = Configuration(travels=[travel], state=state, arrived=[],
                               progress={1: record})
        config.check_consistency()  # should not raise

    def test_str(self, mesh, state):
        travel = _travel(mesh, (0, 0), (1, 1))
        config = initial_configuration([travel], state)
        assert "T=1" in str(config)


class TestWormQueues:
    """The worm queues a switching step keeps on its configuration."""

    @staticmethod
    def _stepped():
        from repro.hermes.instantiation import build_hermes_instance

        instance = build_hermes_instance(2, 2, buffer_capacity=1)
        travels = [instance.make_travel((0, 0), target, num_flits=2)
                   for target in ((1, 0), (1, 1), (0, 1))]
        config = instance.routing.route_configuration(
            instance.initial_configuration(travels)).copy()
        instance.switching.advance(config)
        return config

    def test_kept_across_steps(self):
        config = self._stepped()
        queues = config.worm_queues()
        assert queues.describes(config)
        assert config.worm_queues() is queues
        first, *queued = [travel.travel_id for travel in config.travels]
        moving, waiting = queues.travel_ids()
        assert moving == [first]
        assert list(waiting.values()) == [queued]

    def test_rebuilt_after_an_in_place_edit_of_T(self):
        config = self._stepped()
        queues = config.worm_queues()
        config.travels.reverse()  # same length, other order
        assert not queues.describes(config)
        assert config.worm_queues() is not queues

    def test_rebuilt_after_the_progress_mapping_is_replaced(self):
        config = self._stepped()
        queues = config.worm_queues()
        config.progress = dict(config.progress)
        assert config.worm_queues() is not queues

    def test_consistency_check_compares_them_with_a_rebuild(self):
        config = self._stepped()
        config.check_consistency()
        config.worm_queues().moving.clear()  # stale: travel 0 has moved
        with pytest.raises(AssertionError, match="kept worm queues"):
            config.check_consistency()
