"""Tests for the declarative scenario-spec layer (`repro.core.spec`):
round-trip serialisation, the builder registry, deterministic matrix
expansion, group-stable sharding, and the bit-identical equivalence of
spec-driven portfolios with the legacy hand-built construction."""

import json

import pytest

from repro.core.errors import SpecificationError
from repro.core.portfolio import (
    Scenario,
    merge_shard_reports,
    run_portfolio,
    scenarios_from_specs,
    shard_index_of,
    standard_matrix,
    standard_portfolio,
    vc_escape_matrix,
)
from repro.core.spec import (
    SWITCHING_TOKENS,
    ScenarioSpec,
    expand_matrix,
    resolve_switching,
    spec_registry,
)

SPEC_SAMPLES = [
    ScenarioSpec(kind="mesh", dims=(3, 3), routing="xy",
                 switching="wormhole"),
    ScenarioSpec(kind="mesh", dims=(4, 2), routing="zigzag",
                 switching="saf", buffers=3),
    ScenarioSpec(kind="ring", dims=(5,), routing="clockwise", buffers=1),
    ScenarioSpec(kind="vc-mesh", dims=(3, 3), num_vcs=4, escape="xy",
                 route_policy="spread"),
    ScenarioSpec(kind="vc-torus", dims=(4, 4), num_vcs=2,
                 escape="dateline"),
    ScenarioSpec(kind="vc-ring", dims=(6,), num_vcs=3, label="my-ring",
                 group="my-group"),
]


class TestScenarioSpecRoundTrip:
    @pytest.mark.parametrize("spec", SPEC_SAMPLES,
                             ids=lambda s: f"{s.kind}-{s.dims_text()}")
    def test_to_dict_from_dict_is_exact(self, spec):
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("spec", SPEC_SAMPLES,
                             ids=lambda s: f"{s.kind}-{s.dims_text()}")
    def test_survives_json_serialisation(self, spec):
        payload = json.loads(json.dumps(spec.to_dict()))
        assert ScenarioSpec.from_dict(payload) == spec

    def test_specs_are_hashable_cache_keys(self):
        spec = ScenarioSpec(kind="mesh", dims=(3, 3), routing="xy")
        twin = ScenarioSpec.from_dict(spec.to_dict())
        assert hash(spec) == hash(twin)
        assert {spec: 1}[twin] == 1

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(SpecificationError, match="unknown spec fields"):
            ScenarioSpec.from_dict({"kind": "mesh", "dims": [3, 3],
                                    "routering": "xy"})

    def test_from_dict_requires_kind_and_dims(self):
        with pytest.raises(SpecificationError, match="dims"):
            ScenarioSpec.from_dict({"kind": "mesh"})

    def test_label_and_group_override_derived_names(self):
        spec = SPEC_SAMPLES[-1]
        assert spec.scenario_name() == "my-ring"
        assert spec.group_key() == "my-group"


class TestSpecRegistry:
    def test_all_shipped_kinds_are_registered(self):
        assert set(spec_registry().kinds()) == {
            "mesh", "ring", "vc-mesh", "vc-torus", "vc-ring"}

    def test_unknown_kind_is_a_specification_error(self):
        with pytest.raises(SpecificationError, match="unknown scenario kind"):
            ScenarioSpec(kind="hypercube", dims=(3,)).build()

    def test_unsupported_routing_is_rejected(self):
        with pytest.raises(SpecificationError, match="routing"):
            ScenarioSpec(kind="mesh", dims=(3, 3),
                         routing="clockwise").normalized()

    def test_port_level_kinds_reject_extra_vcs(self):
        with pytest.raises(SpecificationError, match="vc-"):
            ScenarioSpec(kind="ring", dims=(4,), num_vcs=2).normalized()

    def test_escape_style_mismatch_is_rejected(self):
        with pytest.raises(SpecificationError, match="escape"):
            ScenarioSpec(kind="vc-mesh", dims=(3, 3), num_vcs=2,
                         escape="dateline").normalized()

    def test_normalized_fills_kind_defaults(self):
        spec = ScenarioSpec(kind="mesh", dims=(3, 3)).normalized()
        assert spec.routing == "xy"
        assert spec.switching == "wormhole"
        vc = ScenarioSpec(kind="vc-torus", dims=(4, 4)).normalized()
        assert vc.escape == "dateline"

    def test_build_is_the_single_construction_path(self):
        instance = ScenarioSpec(kind="mesh", dims=(3, 3), routing="yx",
                                switching="vct").build()
        assert instance.name == "HERMES-3x3"
        assert instance.routing.name() == "Ryx"
        assert instance.switching.name() == "Svct"
        ring = ScenarioSpec(kind="vc-ring", dims=(4,), num_vcs=2).build()
        assert ring.name == "VC-ring-4-2vc"
        assert ring.num_vcs == 2

    def test_instance_cache_memoises_spec_builds(self):
        from repro.core.cache import reset_instance_cache

        cache = reset_instance_cache()
        spec = ScenarioSpec(kind="mesh", dims=(2, 2), routing="xy",
                            switching="wormhole")
        first = cache.instance_for(spec)
        again = cache.instance_for(ScenarioSpec.from_dict(spec.to_dict()))
        assert first is again
        assert cache.stats()["instances"] == 1
        reset_instance_cache()
        assert cache.stats()["instances"] == 0


#: One term per naming path of every shipped kind: each routing token,
#: each switching token, 1-4 VCs and a faulty variant of each kind.
NAME_SAMPLE_MATRIX = [
    "mesh:3x3, routing=[xy,yx,west-first,north-last,negative-first,"
    "odd-even,adaptive,zigzag]",
    "mesh:2x4, routing=west_first, switching=[vct,saf]",
    "mesh:4x4, routing=odd-even, switching=[wormhole,saf], faults=2, seed=1",
    "ring:4, routing=[chain,clockwise]",
    "ring:6, routing=clockwise, faults=1, seed=2",
    "vc-mesh:3x3, vcs=1..4",
    "vc-mesh:4x3, vcs=2, faults=1, seed=3",
    "vc-torus:4x4, vcs=1..4",
    "vc-torus:3x5, vcs=4, faults=2, seed=1",
    "vc-ring:5, vcs=1..4",
    "vc-ring:6, vcs=2, faults=1, seed=2",
]

#: The scenario names of NAME_SAMPLE_MATRIX as the namers gave them when
#: each kind's namer still lived in its instantiation package.  Names key
#: reports, stores and traces, so they must never drift.
EXPECTED_SAMPLE_NAMES = [
    "mesh-3x3/Rxy/Swh",
    "mesh-3x3/Ryx/Swh",
    "mesh-3x3/Rwest-first/Swh",
    "mesh-3x3/Rnorth-last/Swh",
    "mesh-3x3/Rnegative-first/Swh",
    "mesh-3x3/Rodd-even/Swh",
    "mesh-3x3/Radaptive/Swh",
    "mesh-3x3/Rzigzag/Swh",
    "mesh-2x4/Rwest-first/Svct",
    "mesh-2x4/Rwest-first/Ssaf",
    "mesh-4x4/Rodd-even/Swh/f2s1",
    "mesh-4x4/Rodd-even/Ssaf/f2s1",
    "ring-4/chain",
    "ring-4/clockwise",
    "ring-6/clockwise/f1s2",
    "vc-mesh-3x3/Radaptive+esc-xy/1vc",
    "vc-mesh-3x3/Radaptive+esc-xy/2vc",
    "vc-mesh-3x3/Radaptive+esc-xy/3vc",
    "vc-mesh-3x3/Radaptive+esc-xy/4vc",
    "vc-mesh-4x3/Radaptive+esc-xy/2vc/f1s3",
    "vc-torus-4x4/Rxy-torus+esc-dateline/1vc",
    "vc-torus-4x4/Rxy-torus+esc-dateline/2vc",
    "vc-torus-4x4/Rxy-torus+esc-dateline/3vc",
    "vc-torus-4x4/Rxy-torus+esc-dateline/4vc",
    "vc-torus-3x5/Rxy-torus+esc-dateline/4vc/f2s1",
    "vc-ring-5/Rshortest-ring+esc-dateline/1vc",
    "vc-ring-5/Rshortest-ring+esc-dateline/2vc",
    "vc-ring-5/Rshortest-ring+esc-dateline/3vc",
    "vc-ring-5/Rshortest-ring+esc-dateline/4vc",
    "vc-ring-6/Rshortest-ring+esc-dateline/2vc/f1s2",
]


class TestScenarioNames:
    def test_sample_names_are_byte_identical_to_the_pinned_list(self):
        names = [spec.scenario_name()
                 for spec in expand_matrix(NAME_SAMPLE_MATRIX)]
        assert names == EXPECTED_SAMPLE_NAMES

    @pytest.mark.parametrize("token", SWITCHING_TOKENS)
    def test_mesh_namer_uses_the_switching_policy_name(self, token):
        spec = ScenarioSpec(kind="mesh", dims=(3, 3), switching=token)
        name = spec.scenario_name()
        assert name.split("/")[-1] == resolve_switching(token).name()


class TestMatrixExpansion:
    def test_same_grid_same_ordered_specs(self):
        grid = ("mesh:2..4x2..4, routing=[xy,adaptive], switching=wormhole; "
                "vc-mesh:3x3, vcs=1..4; ring:4..6, routing=chain")
        first = expand_matrix(grid)
        second = expand_matrix(grid)
        assert first == second
        assert [spec.scenario_name() for spec in first] \
            == [spec.scenario_name() for spec in second]
        assert len(first) == 9 * 2 + 4 + 3

    def test_expansion_order_is_pinned(self):
        specs = expand_matrix(
            "mesh:2x2..3, routing=[yx,xy]; vc-ring:4, vcs=[2,1]")
        assert [spec.scenario_name() for spec in specs] == [
            "mesh-2x2/Ryx/Swh",
            "mesh-2x2/Rxy/Swh",
            "mesh-2x3/Ryx/Swh",
            "mesh-2x3/Rxy/Swh",
            "vc-ring-4/Rshortest-ring+esc-dateline/2vc",
            "vc-ring-4/Rshortest-ring+esc-dateline/1vc",
        ]

    def test_dims_alternatives_and_ranges(self):
        specs = expand_matrix("mesh:2x2|3..4x3, routing=xy")
        assert [spec.dims for spec in specs] == [(2, 2), (3, 3), (4, 3)]

    def test_list_of_expressions_concatenates_in_order(self):
        specs = expand_matrix(["ring:4, routing=chain",
                               "ring:4, routing=clockwise"])
        assert [spec.routing for spec in specs] == ["chain", "clockwise"]

    def test_parameters_expand_in_declaration_order(self):
        specs = expand_matrix("vc-torus:4x4, vcs=[4,2,1]")
        assert [spec.num_vcs for spec in specs] == [4, 2, 1]

    def test_vcs_range_and_buffers(self):
        specs = expand_matrix("vc-mesh:3x3, vcs=1..3, buffers=4")
        assert [spec.num_vcs for spec in specs] == [1, 2, 3]
        assert all(spec.buffers == 4 for spec in specs)

    def test_group_override_applies_to_the_term(self):
        specs = expand_matrix("ring:4, routing=[chain,clockwise], group=G")
        assert all(spec.group_key() == "G" for spec in specs)

    @pytest.mark.parametrize("bad, fragment", [
        ("mesh", "does not match"),
        ("mesh:", "does not match"),
        ("mesh:3x3, routing=", "key=value"),
        ("mesh:3x3, colour=red", "unknown matrix key"),
        ("mesh:3x3, routing=[xy", "unbalanced"),
        ("mesh:5..3, routing=xy", "empty range"),
        ("mesh:3x3, routing=xy, routing=yx", "duplicate"),
        ("warp:3x3", "unknown scenario kind"),
        ("mesh:3x3, vcs=2", "vc-"),
        ("mesh:3x3x3, routing=xy", "dimension"),
        ("ring:1", "at least 2"),
        ("vc-ring:1, vcs=2", "at least 2"),
        ("vc-torus:1x3, vcs=2", "at least 2"),
    ])
    def test_invalid_grids_fail_eagerly(self, bad, fragment):
        with pytest.raises(SpecificationError, match=fragment):
            expand_matrix(bad)

    def test_standard_matrix_reproduces_legacy_names(self):
        specs = expand_matrix(standard_matrix(mesh_sizes=(3,),
                                              ring_sizes=(4,)))
        assert [spec.scenario_name() for spec in specs] == [
            "mesh-3x3/Rxy/Swh", "mesh-3x3/Ryx/Swh",
            "mesh-3x3/Rwest-first/Swh", "mesh-3x3/Rnorth-last/Swh",
            "mesh-3x3/Rnegative-first/Swh", "mesh-3x3/Rodd-even/Swh",
            "mesh-3x3/Radaptive/Swh",
            "mesh-3x3/Rzigzag/Swh", "mesh-3x3/Rxy/Svct",
            "ring-4/chain", "ring-4/clockwise",
        ]


class TestSharding:
    def _groups(self):
        specs = expand_matrix(standard_matrix(mesh_sizes=(2, 3, 4),
                                              ring_sizes=(4, 8))
                              + vc_escape_matrix(mesh_sizes=(3,),
                                                 torus_sizes=(4,),
                                                 vc_counts=(1, 2)))
        return specs, sorted({spec.group_key() for spec in specs})

    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 7])
    def test_partition_is_complete_and_disjoint(self, shards):
        specs, groups = self._groups()
        assignment = {group: shard_index_of(group, shards)
                      for group in groups}
        assert set(assignment.values()) <= set(range(shards))
        # Completeness: every group lands on exactly one shard; the union
        # of the per-shard group sets is the whole matrix.
        shard_sets = [{group for group, shard in assignment.items()
                       if shard == index} for index in range(shards)]
        union = set().union(*shard_sets)
        assert union == set(groups)
        assert sum(len(shard_set) for shard_set in shard_sets) == len(groups)

    def test_assignment_is_stable_across_calls(self):
        _, groups = self._groups()
        for group in groups:
            assert shard_index_of(group, 4) == shard_index_of(group, 4)

    def test_sharded_runs_merge_to_the_unsharded_report(self):
        scenarios = scenarios_from_specs(expand_matrix(
            "mesh:3x3, routing=[xy,zigzag]; ring:4, routing=[chain,clockwise];"
            "vc-torus:4x4, vcs=1..2"))
        full = run_portfolio(scenarios)
        reports = [run_portfolio(scenarios, shard=(index, 2))
                   for index in range(2)]
        # This matrix genuinely splits: both shards carry work.
        assert all(report.verdicts for report in reports)
        for index, report in enumerate(reports):
            assert report.shard == (index, 2)
            for verdict in report.verdicts:
                assert verdict.shard == (index, 2)
        names = [{verdict.scenario for verdict in report.verdicts}
                 for report in reports]
        assert not names[0] & names[1]
        merged = merge_shard_reports(reports)
        assert merged.comparable_dict() == full.comparable_dict()

    def test_shards_never_split_a_session_group(self):
        scenarios = scenarios_from_specs(expand_matrix(
            "vc-mesh:3x3, vcs=1..4; vc-torus:4x4, vcs=1..2"))
        group_names = {}
        for scenario in scenarios:
            group_names.setdefault(scenario.group_key(),
                                   set()).add(scenario.name)
        for index in range(2):
            report = run_portfolio(scenarios, shard=(index, 2))
            shard_names = {verdict.scenario for verdict in report.verdicts}
            for group, names in group_names.items():
                # A group is either fully on this shard or fully elsewhere.
                assert shard_names & names in (names, set())

    def test_out_of_range_shard_is_rejected(self):
        scenarios = standard_portfolio(mesh_sizes=(2,), ring_sizes=())
        with pytest.raises(ValueError):
            run_portfolio(scenarios, shard=(2, 2))
        with pytest.raises(ValueError):
            run_portfolio(scenarios, shard=(0, 0))

    def test_merge_rejects_overlapping_reports(self):
        scenarios = standard_portfolio(mesh_sizes=(2,), ring_sizes=())
        report = run_portfolio(scenarios)
        with pytest.raises(ValueError, match="overlap"):
            merge_shard_reports([report, report])

    def test_merge_rejects_an_incomplete_shard_set(self):
        """A lost shard artifact must not masquerade as a full run."""
        scenarios = standard_portfolio(mesh_sizes=(2,), ring_sizes=(4,))
        half = run_portfolio(scenarios, shard=(0, 2))
        with pytest.raises(ValueError, match="missing shard"):
            merge_shard_reports([half])

    def test_merge_rejects_mismatched_shard_counts(self):
        scenarios = standard_portfolio(mesh_sizes=(2,), ring_sizes=(4,))
        with pytest.raises(ValueError, match="shard count"):
            merge_shard_reports([run_portfolio(scenarios, shard=(0, 2)),
                                 run_portfolio(scenarios, shard=(1, 3))])


def _legacy_acceptance_scenarios():
    """The >= 24-scenario grid, hand-built through the legacy builders.

    This is the historical construction path -- direct ``build_*`` calls
    with explicitly pickled instances -- kept here verbatim as the
    reference the declarative layer must reproduce bit for bit.
    """
    from repro.hermes.instantiation import build_hermes_instance
    from repro.network.mesh import Mesh2D
    from repro.ringnoc.instantiation import (
        build_chain_ring_instance,
        build_clockwise_ring_instance,
    )
    from repro.routing.adaptive import (
        FullyAdaptiveMinimalRouting,
        ZigZagRouting,
    )
    from repro.routing.turn_model import (
        NegativeFirstRouting,
        NorthLastRouting,
        WestFirstRouting,
    )
    from repro.routing.xy import XYRouting
    from repro.routing.yx import YXRouting
    from repro.switching.virtual_cut_through import VirtualCutThroughSwitching
    from repro.vcnoc.instantiation import (
        build_vc_mesh_instance,
        build_vc_ring_instance,
        build_vc_torus_instance,
    )

    scenarios = []
    mesh = Mesh2D(3, 3)
    for routing in [XYRouting(mesh), YXRouting(mesh), WestFirstRouting(mesh),
                    NorthLastRouting(mesh), NegativeFirstRouting(mesh),
                    FullyAdaptiveMinimalRouting(mesh), ZigZagRouting(mesh)]:
        scenarios.append(Scenario(
            name=f"mesh-3x3/{routing.name()}/Swh",
            instance=build_hermes_instance(3, 3, routing=routing),
            group="mesh-3x3"))
    scenarios.append(Scenario(
        name="mesh-3x3/Rxy/Svct",
        instance=build_hermes_instance(
            3, 3, routing=XYRouting(mesh),
            switching=VirtualCutThroughSwitching()),
        group="mesh-3x3"))
    mesh4 = Mesh2D(4, 4)
    for routing in [XYRouting(mesh4), YXRouting(mesh4)]:
        scenarios.append(Scenario(
            name=f"mesh-4x4/{routing.name()}/Swh",
            instance=build_hermes_instance(4, 4, routing=routing),
            group="mesh-4x4"))
    scenarios.append(Scenario(
        name="ring-4/chain", instance=build_chain_ring_instance(4),
        group="ring-4"))
    scenarios.append(Scenario(
        name="ring-4/clockwise", instance=build_clockwise_ring_instance(4),
        group="ring-4"))
    for vcs in (1, 2, 3, 4):
        scenarios.append(Scenario(
            name=f"vc-mesh-3x3/Radaptive+esc-xy/{vcs}vc",
            instance=build_vc_mesh_instance(3, 3, num_vcs=vcs),
            group="vc-mesh-3x3"))
    for vcs in (1, 2, 3, 4):
        scenarios.append(Scenario(
            name=f"vc-torus-4x4/Rxy-torus+esc-dateline/{vcs}vc",
            instance=build_vc_torus_instance(4, 4, num_vcs=vcs),
            group="vc-torus-4x4"))
    for vcs in (1, 2, 3, 4):
        scenarios.append(Scenario(
            name=f"vc-ring-4/Rshortest-ring+esc-dateline/{vcs}vc",
            instance=build_vc_ring_instance(4, num_vcs=vcs),
            group="vc-ring-4"))
    return scenarios


ACCEPTANCE_MATRIX = (
    "mesh:3x3, routing=[xy,yx,west-first,north-last,negative-first,"
    "adaptive,zigzag], switching=wormhole; "
    "mesh:3x3, routing=xy, switching=vct; "
    "mesh:4x4, routing=[xy,yx], switching=wormhole; "
    "ring:4, routing=chain; ring:4, routing=clockwise, buffers=1; "
    "vc-mesh:3x3, vcs=1..4; vc-torus:4x4, vcs=1..4; vc-ring:4, vcs=1..4"
)


class TestSpecPortfolioEquivalence:
    """The PR's acceptance contract: a matrix-expanded sweep of >= 24
    mesh/torus/ring x routing x 1-4 VC scenarios produces verdicts
    bit-identical to the same scenarios built via the legacy builders,
    sharded or not."""

    def test_matrix_run_matches_legacy_builders_bit_for_bit(self):
        legacy = _legacy_acceptance_scenarios()
        matrix = scenarios_from_specs(expand_matrix(ACCEPTANCE_MATRIX))
        assert len(matrix) >= 24
        assert [s.name for s in matrix] == [s.name for s in legacy]
        legacy_report = run_portfolio(legacy)
        matrix_report = run_portfolio(matrix)
        assert matrix_report.comparable_dict() \
            == legacy_report.comparable_dict()
        # And the union of the two shard halves equals the unsharded run.
        merged = merge_shard_reports(
            [run_portfolio(matrix, shard=(index, 2)) for index in range(2)])
        assert merged.comparable_dict() == matrix_report.comparable_dict()
