"""The in-place GeNoC engine against the pure switching step.

``GeNoCEngine.run`` copies the routed configuration once and advances it in
place.  The reference here is the plain loop over the pure ``S : Σ -> Σ``
(``switching.step``, which copies on every call) with the flit-hop measure
recomputed after each step.  Both must produce the same run, step for step,
and the engine must leave its input configuration untouched.
"""

import pytest

from repro.core.configuration import Configuration
from repro.core.deadlock import is_deadlock
from repro.core.errors import SwitchingError
from repro.core.genoc import StepRecord
from repro.core.measure import flit_hop_measure
from repro.core.state import NetworkState
from repro.hermes.instantiation import build_hermes_instance
from repro.network.flit import Flit, FlitKind
from repro.simulation.workloads import uniform_random_traffic
from repro.switching.store_and_forward import StoreAndForwardSwitching
from repro.switching.virtual_cut_through import VirtualCutThroughSwitching
from repro.switching.wormhole import WormholeSwitching
from repro.vcnoc.instantiation import build_vc_mesh_instance


def reference_run(instance, config):
    """The engine loop as a pure fold of ``switching.step``."""
    switching = instance.switching
    current = instance.routing.route_configuration(
        instance.injection.inject(config))
    measures = [flit_hop_measure(current)]
    history = []
    steps = 0
    while current.travels and not is_deadlock(current, switching):
        current = switching.step(current)
        steps += 1
        measures.append(flit_hop_measure(current))
        history.append(StepRecord(
            step=steps, measure=measures[-1], pending=len(current.travels),
            arrived=len(current.arrived),
            flits_in_network=current.state.total_flits()))
    return current, steps, measures, history


def snapshot(config: Configuration):
    """Everything the dynamic state of a configuration consists of."""
    return {
        "buffers": {port: (tuple(state.buffer), state.owner)
                    for port, state in config.state.items()},
        "positions": {tid: tuple(record.positions)
                      for tid, record in config.progress.items()},
        "T": [travel.travel_id for travel in config.travels],
        "A": [travel.travel_id for travel in config.arrived],
    }


def instances():
    return [
        pytest.param(lambda: build_hermes_instance(
            4, 4, buffer_capacity=2, switching=WormholeSwitching()), 4,
            id="Swh-mesh"),
        pytest.param(lambda: build_hermes_instance(
            4, 4, buffer_capacity=3, switching=VirtualCutThroughSwitching()),
            3, id="Svct-mesh"),
        pytest.param(lambda: build_hermes_instance(
            4, 4, buffer_capacity=4, switching=StoreAndForwardSwitching()),
            3, id="Ssaf-mesh"),
        pytest.param(lambda: build_vc_mesh_instance(
            4, 4, num_vcs=2, route_policy="spread"), 4, id="Svc-wh-vc-mesh"),
    ]


@pytest.mark.parametrize("seed", [0, 5, 11])
@pytest.mark.parametrize("build, num_flits", instances())
def test_engine_matches_pure_step_loop(build, num_flits, seed):
    instance = build()
    travels = list(uniform_random_traffic(
        instance, 40, num_flits=num_flits, seed=seed).travels)
    config = instance.initial_configuration(travels)
    before = snapshot(config)

    result = instance.engine().run(config, check_invariants=True)
    final, steps, measures, history = reference_run(
        instance, instance.initial_configuration(travels))

    assert result.steps == steps > 0
    assert result.measures == measures
    assert result.history == history
    assert not result.deadlocked
    assert [t.travel_id for t in result.final.arrived] == \
        [t.travel_id for t in final.arrived]
    assert snapshot(result.final) == snapshot(final)
    assert snapshot(config) == before


@pytest.mark.parametrize("build, num_flits", instances())
def test_engine_leaves_a_mid_run_configuration_untouched(build, num_flits):
    instance = build()
    travels = list(uniform_random_traffic(
        instance, 30, num_flits=num_flits, seed=3).travels)
    config = instance.routing.route_configuration(
        instance.initial_configuration(travels))
    for _ in range(6):
        config = instance.switching.step(config)
    assert config.state.total_flits() > 0
    before = snapshot(config)

    result = instance.engine().run(config)
    final, steps, measures, history = reference_run(instance, config)

    assert snapshot(config) == before
    assert (result.steps, result.measures, result.history) == \
        (steps, measures, history)
    assert snapshot(result.final) == snapshot(final)


def test_step_is_advance_on_a_copy():
    instance = build_hermes_instance(3, 3, buffer_capacity=2)
    travels = list(uniform_random_traffic(instance, 12, seed=2).travels)
    config = instance.routing.route_configuration(
        instance.initial_configuration(travels))
    before = snapshot(config)
    stepped = instance.switching.step(config)
    assert snapshot(config) == before
    instance.switching.advance(config)
    assert snapshot(config) == snapshot(stepped)


class TestStoreAndForwardChecksFlits:
    """Store-and-forward pops flits through the checked ``remove_flit``."""

    def _planted(self, flits):
        instance = build_hermes_instance(
            3, 3, buffer_capacity=4, switching=StoreAndForwardSwitching())
        travel = instance.make_travel((0, 0), (2, 0), num_flits=2)
        config = instance.routing.route_configuration(
            instance.initial_configuration([travel]))
        record = config.progress[travel.travel_id]
        state = NetworkState.empty(instance.topology, capacity=4)
        for flit in flits(travel.travel_id):
            state.accept_flit(record.route[0], flit)
        record.positions[:] = [0, 0]
        planted = Configuration(travels=config.travels, state=state,
                                progress=config.progress)
        return instance, planted

    def test_a_foreign_flit_raises(self):
        foreign = 10_000
        instance, config = self._planted(lambda travel_id: [
            Flit(foreign, 0, FlitKind.HEADER),
            Flit(foreign, 1, FlitKind.TAIL)])
        with pytest.raises(SwitchingError, match=rf"found H{foreign}\.0"):
            instance.switching.step(config)

    def test_flits_out_of_order_raise(self):
        instance, config = self._planted(lambda travel_id: [
            Flit(travel_id, 1, FlitKind.TAIL),
            Flit(travel_id, 0, FlitKind.HEADER)])
        with pytest.raises(SwitchingError, match="expected flit 0"):
            instance.switching.step(config)

    def test_own_flits_in_order_move(self):
        instance, config = self._planted(lambda travel_id: [
            Flit(travel_id, 0, FlitKind.HEADER),
            Flit(travel_id, 1, FlitKind.TAIL)])
        stepped = instance.switching.step(config)
        (record,) = stepped.progress.values()
        assert record.positions == [1, 1]
