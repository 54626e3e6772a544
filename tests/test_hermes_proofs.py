"""Tests for the HERMES obligation discharge (user input, part II)."""

import pytest

from repro.hermes.instantiation import build_hermes_instance
from repro.hermes.proofs import (
    default_workloads,
    discharge_all,
    discharge_c1_xy,
    discharge_c2_xy,
    discharge_c3_xy,
    discharge_c4_iid,
    discharge_c5_wh,
)


@pytest.fixture(scope="module")
def instance():
    return build_hermes_instance(3, 3, buffer_capacity=2)


@pytest.fixture(scope="module")
def workloads(instance):
    return default_workloads(instance)


class TestIndividualDischarges:
    def test_c1(self, instance):
        result = discharge_c1_xy(instance)
        assert result.holds
        assert result.checks > 100  # many case distinctions, like the paper

    def test_c2(self, instance):
        result = discharge_c2_xy(instance)
        assert result.holds
        assert result.details["fallback_witnesses"] == 0

    def test_c3_bounded_and_parametric(self, instance):
        result = discharge_c3_xy(instance)
        assert result.holds
        assert result.details["parametric_holds"] is True
        assert result.details["rank_certificate_violations"] == 0
        assert result.details["parametric_cases"] == 21

    def test_c3_without_parametric_part(self, instance):
        result = discharge_c3_xy(instance, include_parametric=False)
        assert result.holds
        assert "parametric_holds" not in result.details

    def test_c4(self, instance, workloads):
        result = discharge_c4_iid(instance, workloads)
        assert result.holds
        assert result.checks == len(workloads)

    def test_c5(self, instance, workloads):
        result = discharge_c5_wh(instance, workloads)
        assert result.holds
        assert result.checks > 0


class TestDischargeAll:
    @pytest.mark.parametrize("size", [2, 3])
    def test_all_obligations_hold(self, size):
        report = discharge_all(size, size)
        assert report.all_hold
        assert set(report.results) == {"C-1", "C-2", "C-3", "C-4", "C-5"}
        assert report.total_checks > 0
        assert report.elapsed_seconds > 0

    def test_non_square_mesh(self):
        report = discharge_all(4, 2)
        assert report.all_hold

    def test_summary_lines(self):
        report = discharge_all(2, 2)
        lines = report.summary_lines()
        assert any("C-3" in line for line in lines)
        assert any("all hold" in line for line in lines)

    def test_custom_workloads(self, instance):
        workload = [instance.make_travel((0, 0), (2, 2), num_flits=2)]
        report = discharge_all(3, 3, workloads=[workload])
        assert report.all_hold
        assert report.results["C-4"].checks == 1


class TestDefaultWorkloads:
    def test_workloads_are_nonempty(self, instance, workloads):
        assert workloads
        assert all(len(workload) > 0 for workload in workloads)

    def test_workload_travels_stay_inside_the_mesh(self, instance, workloads):
        for workload in workloads:
            for travel in workload:
                assert instance.mesh.has_port(travel.source)
                assert instance.mesh.has_port(travel.destination)

    def test_1x1_mesh_has_no_default_workload(self):
        tiny = build_hermes_instance(1, 1)
        assert default_workloads(tiny) == []
