"""Tests for NoCInstance bundling and the Fig. 2 verification pipeline."""

import pytest

from repro.core.pipeline import discharge_obligations, verify_instance
from repro.hermes.instantiation import build_hermes_instance
from repro.network.mesh import Mesh2D
from repro.ringnoc.instantiation import build_chain_ring_instance
from repro.routing.yx import YXRouting
from repro.switching.store_and_forward import StoreAndForwardSwitching


@pytest.fixture
def instance():
    return build_hermes_instance(3, 3, buffer_capacity=2)


def small_workloads(instance):
    return [
        [instance.make_travel((0, 0), (2, 2), num_flits=3),
         instance.make_travel((2, 2), (0, 0), num_flits=3)],
        [instance.make_travel((0, 2), (2, 0), num_flits=2)],
    ]


class TestNoCInstance:
    def test_describe_includes_constituents(self, instance):
        description = instance.describe()
        assert description["routing"] == "Rxy"
        assert description["switching"] == "Swh"
        assert description["injection"] == "Iid"
        assert description["nodes"] == 9

    def test_make_travel_uses_local_ports(self, instance):
        travel = instance.make_travel((0, 0), (2, 1), num_flits=2)
        assert travel.source == instance.mesh.node_at(0, 0).local_in
        assert travel.destination == instance.mesh.node_at(2, 1).local_out

    def test_initial_configuration_capacity_override(self, instance):
        travel = instance.make_travel((0, 0), (1, 1))
        config = instance.initial_configuration([travel], capacity=5)
        some_port = instance.mesh.node_at(0, 0).local_in
        assert config.state[some_port].buffer.capacity == 5

    def test_default_capacity_applies(self, instance):
        config = instance.initial_configuration([])
        some_port = instance.mesh.node_at(0, 0).local_in
        assert config.state[some_port].buffer.capacity == 2

    def test_run_produces_result(self, instance):
        result = instance.run([instance.make_travel((0, 0), (2, 2))])
        assert result.evacuated

    def test_hermes_instance_properties(self, instance):
        assert instance.width == 3
        assert instance.height == 3
        assert instance.mesh.node_count == 9

    def test_build_with_alternative_constituents(self):
        alternative = build_hermes_instance(
            3, 3, buffer_capacity=4,
            routing=YXRouting(Mesh2D(3, 3)),
            switching=StoreAndForwardSwitching())
        # YX is not XY: no Exy_dep is attached.
        assert alternative.dependency_spec is None
        assert alternative.witness_destination is None
        result = alternative.run(
            [alternative.make_travel((0, 0), (2, 2), num_flits=3)])
        assert result.evacuated


class TestDischargeObligations:
    def test_all_five_obligations_reported(self, instance):
        results = discharge_obligations(instance, small_workloads(instance))
        assert set(results) == {"C-1", "C-2", "C-3", "C-4", "C-5"}
        assert all(result.holds for result in results.values())

    def test_without_dependency_spec_only_extensional_obligations(self):
        instance = build_hermes_instance(2, 2,
                                         routing=YXRouting(Mesh2D(2, 2)))
        results = discharge_obligations(
            instance, [[instance.make_travel((0, 0), (1, 1))]])
        assert set(results) == {"C-4", "C-5"}

    def test_no_workloads_is_vacuous_for_c4_c5(self, instance):
        results = discharge_obligations(instance, [])
        assert results["C-4"].holds and results["C-4"].checks == 0
        assert results["C-5"].holds and results["C-5"].checks == 0


class TestVerifyInstance:
    def test_full_pipeline_verifies_hermes(self, instance):
        report = verify_instance(instance, small_workloads(instance))
        assert report.verified
        assert report.all_obligations_hold
        assert report.all_theorems_hold
        assert set(report.theorems) == {"DeadThm", "CorrThm", "EvacThm"}
        assert len(report.runs) == 2
        assert all(run.evacuated for run in report.runs)

    def test_full_pipeline_verifies_chain_ring(self):
        instance = build_chain_ring_instance(4)
        workloads = [[instance.make_travel((0, 0), (3, 0), num_flits=2),
                      instance.make_travel((3, 0), (0, 0), num_flits=2)]]
        report = verify_instance(instance, workloads)
        assert report.verified

    def test_summary_mentions_verdict(self, instance):
        report = verify_instance(instance, small_workloads(instance))
        assert "VERDICT: verified" in report.summary()
        assert any("C-3" in line for line in report.summary_lines())

    def test_pipeline_without_workload_runs(self, instance):
        report = verify_instance(instance, small_workloads(instance),
                                 run_workloads=False)
        assert "CorrThm" not in report.theorems
        assert "DeadThm" in report.theorems
        assert report.runs == []

    def test_pipeline_flags_broken_instances(self):
        # Pair YX routing with the XY dependency graph: C-1 fails, and so
        # does the derived deadlock theorem.
        mesh = Mesh2D(3, 3)
        broken = build_hermes_instance(3, 3)
        broken.routing = YXRouting(mesh)
        report = verify_instance(
            broken, [[broken.make_travel((0, 0), (2, 2), num_flits=2)]])
        assert not report.obligations["C-1"].holds
        assert not report.theorems["DeadThm"].holds
        assert not report.verified
        assert "NOT verified" in report.summary()

    def test_elapsed_time_positive(self, instance):
        report = verify_instance(instance, small_workloads(instance))
        assert report.elapsed_seconds > 0
