"""Tests for the HERMES instantiation entry points (GeNoC2D)."""

import pytest

from repro.core.configuration import initial_configuration
from repro.core.state import NetworkState
from repro.hermes.injection import Iid
from repro.hermes.instantiation import (
    GeNoC2D,
    build_hermes_instance,
    run_hermes,
)
from repro.network.mesh import Mesh2D
from repro.routing.xy import XYRouting
from repro.routing.yx import YXRouting
from repro.switching.wormhole import WormholeSwitching


class TestBuildHermesInstance:
    def test_default_constituents(self):
        instance = build_hermes_instance(4, 3)
        assert isinstance(instance.routing, XYRouting)
        assert isinstance(instance.switching, WormholeSwitching)
        assert isinstance(instance.injection, Iid)
        assert instance.dependency_spec is not None
        assert instance.witness_destination is not None
        assert instance.name == "HERMES-4x3"

    def test_buffer_capacity_parameter(self):
        instance = build_hermes_instance(2, 2, buffer_capacity=7)
        config = instance.initial_configuration([])
        port = instance.mesh.node_at(0, 0).local_in
        assert config.state[port].buffer.capacity == 7

    def test_non_xy_routing_has_no_exy_dep(self):
        instance = build_hermes_instance(3, 3,
                                         routing=YXRouting(Mesh2D(3, 3)))
        assert instance.dependency_spec is None

    def test_witness_destination_matches_find_dest(self):
        from repro.hermes.ports import witness_destination
        from repro.network.port import Direction, Port, PortName

        instance = build_hermes_instance(3, 3)
        source = Port(1, 1, PortName.WEST, Direction.IN)
        target = Port(1, 1, PortName.EAST, Direction.OUT)
        assert instance.witness_destination(source, target) == \
            witness_destination(source, target, instance.mesh)


class TestGeNoC2D:
    def _initial(self, instance, travels):
        return initial_configuration(
            travels, NetworkState.empty(instance.topology, capacity=2))

    def test_genoc2d_runs_a_configuration(self):
        instance = build_hermes_instance(3, 3)
        travels = [instance.make_travel((0, 0), (2, 2), num_flits=3),
                   instance.make_travel((2, 0), (0, 2), num_flits=2)]
        config = self._initial(instance, travels)
        result = GeNoC2D(config, 3, 3)
        assert result.evacuated
        assert sorted(t.travel_id for t in result.final.arrived) == \
            sorted(t.travel_id for t in travels)

    def test_genoc2d_empty_configuration(self):
        instance = build_hermes_instance(2, 2)
        config = self._initial(instance, [])
        result = GeNoC2D(config, 2, 2)
        assert result.evacuated
        assert result.steps == 0

    def test_run_hermes_wrapper(self):
        instance = build_hermes_instance(3, 3)
        travels = [instance.make_travel((0, 0), (2, 1), num_flits=2)]
        result = run_hermes(3, 3, travels)
        assert result.evacuated

    def test_arbitrary_message_sizes_and_buffers(self):
        # The paper stresses everything is parametric: message count, size,
        # buffer depth.
        for buffers in (1, 2, 4):
            for flits in (1, 3, 7):
                instance = build_hermes_instance(3, 2,
                                                 buffer_capacity=buffers)
                travels = [instance.make_travel((0, 0), (2, 1),
                                                num_flits=flits),
                           instance.make_travel((2, 1), (0, 0),
                                                num_flits=flits)]
                result = instance.run(travels)
                assert result.evacuated, (buffers, flits)

    def test_rectangular_meshes(self):
        for width, height in [(1, 4), (4, 1), (2, 5), (6, 2)]:
            instance = build_hermes_instance(width, height)
            travels = [instance.make_travel((0, 0),
                                            (width - 1, height - 1),
                                            num_flits=2)]
            result = instance.run(travels)
            assert result.evacuated, (width, height)
