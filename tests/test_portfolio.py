"""Tests for the deadlock-query session, the portfolio batch driver (its
acceptance fixture and weighted sharding included), and the fast
key-level wormhole stepper of the state-space explorer (cross-validated
against the generic decode-based path)."""

import json
import os
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.checking.bmc import ConfigurationSpace, explore_configuration_space
from repro.checking.graphs import find_cycle_dfs
from repro.core.deadlock import DeadlockQuerySession
from repro.core.dependency import routing_dependency_graph
from repro.core.portfolio import (
    PortfolioReport,
    Scenario,
    run_portfolio,
    standard_portfolio,
)
from repro.core.theorems import check_deadlock_freedom
from repro.hermes.dependency import build_exy_graph
from repro.hermes.instantiation import build_hermes_instance
from repro.network.mesh import Mesh2D
from repro.ringnoc.instantiation import (
    build_chain_ring_instance,
    build_clockwise_ring_instance,
)
from repro.routing.adaptive import ZigZagRouting
from repro.switching.store_and_forward import StoreAndForwardSwitching
from repro.switching.virtual_cut_through import VirtualCutThroughSwitching

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "data")


def declared_session(instance):
    """A session over the instance's declared dependency graph."""
    return DeadlockQuerySession(instance.dependency_spec.to_graph(),
                                name=f"{instance.name} (declared)")


class TestDeadlockQuerySession:
    def test_declared_graph_session_agrees_with_theorem(self):
        instance = build_hermes_instance(3, 3)
        session = declared_session(instance)
        assert session.is_deadlock_free()
        assert check_deadlock_freedom(instance).holds

    def test_repeated_queries_on_one_session(self):
        instance = build_clockwise_ring_instance(4)
        session = DeadlockQuerySession.for_routing(instance.routing)
        assert not session.is_deadlock_free()
        # Re-queries on the same session keep answering consistently.
        assert not session.is_deadlock_free()
        core = session.cycle_core_for(session.edges)
        assert core, "a cyclic graph must yield a cycle core"
        assert not session.is_deadlock_free_edges(core)
        # Removing all wrap-edges of the core restores freedom for the rest.
        assert session.is_deadlock_free_edges(
            edge for edge in session.edges if edge not in core)

    def test_escape_edges_break_the_ring_cycle(self):
        instance = build_clockwise_ring_instance(4)
        session = DeadlockQuerySession.for_routing(instance.routing)
        escapes = session.escape_edges_for(session.edges)
        assert escapes, "a single dateline edge removal must fix the ring"
        for edge in escapes:
            assert session.is_deadlock_free_edges(
                kept for kept in session.edges if kept != edge)

    @pytest.mark.parametrize("build, free, escapable", [
        (lambda: build_exy_graph(Mesh2D(4, 4)), True, False),
        (lambda: routing_dependency_graph(ZigZagRouting(Mesh2D(4, 4))),
         False, False),
        (lambda: routing_dependency_graph(
            build_clockwise_ring_instance(8).routing), False, True),
    ], ids=["xy-mesh-4x4", "zigzag-mesh-4x4", "clockwise-ring-8"])
    def test_session_agrees_with_dfs_beyond_toy_sizes(self, build, free,
                                                      escapable):
        """The DFS and the session reach the same verdict; only the
        ring's cycles share an edge whose removal breaks them all."""
        graph = build()
        assert find_cycle_dfs(graph).acyclic is free
        session = DeadlockQuerySession(graph, name="beyond-toy")
        assert session.is_deadlock_free() is free
        assert bool(session.escape_edges_for(session.edges)) is escapable

    def test_subset_queries_are_monotone(self):
        instance = build_hermes_instance(2, 2)
        session = declared_session(instance)
        assert session.is_deadlock_free()
        ports = sorted({p for e in session.edges for p in e}, key=str)
        # Every subset of an acyclic graph is acyclic.
        for subset in (set(ports[::2]), set(ports[::3])):
            assert session.is_deadlock_free_edges(
                (source, target) for source, target in session.edges
                if source in subset and target in subset)


class TestIncrementalTheorem:
    def test_incremental_matches_classic_on_hermes(self):
        instance = build_hermes_instance(3, 3)
        classic = check_deadlock_freedom(instance)
        session = declared_session(instance)
        assert classic.holds and session.is_deadlock_free()

    def test_incremental_detects_ring_cycle_with_escapes(self):
        instance = build_clockwise_ring_instance(4)
        session = DeadlockQuerySession.for_routing(instance.routing)
        assert not session.is_deadlock_free()
        assert session.cycle_core_for(session.edges)
        assert session.escape_edges_for(session.edges)

    def test_shared_session_restricts_to_instance_edges(self):
        """A session grown with another routing's edges must not change the
        verdict for an instance whose own dependency graph is acyclic."""
        instance = build_hermes_instance(3, 3)
        session = declared_session(instance)
        own_edges = session.edges
        # Pollute the shared universe with the cyclic edges of a zigzag
        # routing on the same mesh (cyclic from 3x3 upwards).
        cyclic = routing_dependency_graph(
            ZigZagRouting(Mesh2D(3, 3)))
        for source, target in cyclic.edges():
            session.add_edge(source, target)
        assert not session.is_deadlock_free()  # the union is cyclic
        assert session.is_deadlock_free_edges(own_edges), \
            "instance verdict must be restricted to its own edges"
        assert session.escape_edges_for(own_edges) == []


class TestPortfolioDriver:
    def test_standard_portfolio_verdicts(self):
        report = run_portfolio(
            standard_portfolio(mesh_sizes=(3,), ring_sizes=(4,)),
            cross_check=True)
        verdicts = {v.scenario: v.deadlock_free for v in report.verdicts}
        assert verdicts["mesh-3x3/Rxy/Swh"]
        assert verdicts["mesh-3x3/Ryx/Swh"]
        assert verdicts["mesh-3x3/Rwest-first/Swh"]
        assert not verdicts["mesh-3x3/Radaptive/Swh"]
        assert not verdicts["mesh-3x3/Rzigzag/Swh"]
        assert verdicts["mesh-3x3/Rxy/Svct"]
        assert verdicts["ring-4/chain"]
        assert not verdicts["ring-4/clockwise"]

    def test_sessions_are_shared_within_groups(self):
        report = run_portfolio(
            standard_portfolio(mesh_sizes=(3,), ring_sizes=()),
            cross_check=True)
        assert list(report.session_stats) == ["mesh-3x3"]
        # Later scenarios re-use earlier edges: at least one scenario
        # contributed no new edges at all.
        assert any(v.new_edges == 0 for v in report.verdicts[1:])

    def test_failure_analysis_on_ring(self):
        report = run_portfolio(
            standard_portfolio(mesh_sizes=(), ring_sizes=(4,)))
        prone = [v for v in report.verdicts if not v.deadlock_free]
        assert len(prone) == 1
        assert prone[0].cycle_core
        assert prone[0].escape_edges
        assert report.formatted()
        assert "deadlock-prone" in report.summary()


    def test_default_run_never_builds_a_solver_session(self, monkeypatch):
        """The verdict path is the graph search alone: a default run must
        decide every condition kind without a session."""
        def refuse(*_args, **_kwargs):
            raise AssertionError("default run built a DeadlockQuerySession")

        monkeypatch.setattr(DeadlockQuerySession, "__init__", refuse)
        report = run_portfolio(_mixed_portfolio())
        assert report.status_counts()["ok"] == len(report.verdicts)
        assert report.deadlock_prone_count > 0
        assert report.session_stats == {}
        assert all(verdict.solver == {} for verdict in report.verdicts)

    @pytest.mark.parametrize("method, stub, answers", [
        ("is_deadlock_free_edges", lambda self, edges: True,
         ("graph search free=False with 8", "Kahn session free=True")),
        ("cycle_core_for", lambda self, edges: [],
         ("graph search free=False with 8",
          "Kahn session free=False with 0")),
    ], ids=["verdict", "escape-set"])
    def test_cross_check_disagreement_is_an_error_verdict(
            self, monkeypatch, method, stub, answers):
        """A session that calls every query free, or finds no cycle,
        contradicts the graph search on the prone ring: that scenario
        must come back as an ``error`` verdict naming itself and both
        answers."""
        monkeypatch.setattr(DeadlockQuerySession, method, stub)
        report = run_portfolio(
            standard_portfolio(mesh_sizes=(), ring_sizes=(4,)),
            cross_check=True)
        statuses = {v.scenario: v.status for v in report.verdicts}
        assert statuses == {"ring-4/chain": "ok",
                            "ring-4/clockwise": "error"}
        [failed] = [v for v in report.verdicts if v.status == "error"]
        assert "ring-4/clockwise" in failed.error
        for answer in answers:
            assert answer in failed.error


def _mixed_portfolio():
    """Mesh, ring and VC mesh/torus scenarios -- every condition kind."""
    from repro.core.portfolio import vc_escape_portfolio

    return (standard_portfolio(mesh_sizes=(3,), ring_sizes=(4,))
            + vc_escape_portfolio(mesh_sizes=(3,), torus_sizes=(4,),
                                  vc_counts=(1, 2)))


class TestParallelPortfolio:
    def test_parallel_verdicts_identical_to_serial(self):
        """The tentpole contract: ``--jobs 4`` reproduces ``--jobs 1``
        bit for bit -- verdicts, ordering, cores, peel counts --
        across mesh, ring, VC-mesh and VC-torus scenario groups."""
        scenarios = _mixed_portfolio()
        serial = run_portfolio(scenarios, jobs=1)
        parallel = run_portfolio(scenarios, jobs=4)
        assert serial.jobs == 1
        assert parallel.jobs == 4
        assert serial.comparable_dict() == parallel.comparable_dict()
        # The full export differs only in timings/jobs/cache counters.
        names = [v.scenario for v in parallel.verdicts]
        assert names == [s.name for s in scenarios]

    def test_jobs_zero_means_all_cores(self):
        import os

        from repro.core.portfolio import resolve_jobs

        assert resolve_jobs(0) == (os.cpu_count() or 1)
        assert resolve_jobs(None) == (os.cpu_count() or 1)
        assert resolve_jobs(3) == 3

    def test_single_group_runs_in_process(self):
        """One group cannot be split, so no pool is spun up (and the
        verdicts still match a multi-worker request)."""
        scenarios = standard_portfolio(mesh_sizes=(3,), ring_sizes=())
        serial = run_portfolio(scenarios, jobs=1)
        parallel = run_portfolio(scenarios, jobs=4)
        assert serial.comparable_dict() == parallel.comparable_dict()

    def test_per_scenario_solver_deltas_sum_to_session_stats(self):
        report = run_portfolio(standard_portfolio(mesh_sizes=(3,),
                                                  ring_sizes=()),
                               cross_check=True)
        totals = {}
        for verdict in report.verdicts:
            assert verdict.solver  # schema 2: every scenario records work
            for key, value in verdict.solver.items():
                totals[key] = totals.get(key, 0) + value
        assert totals == report.session_stats["mesh-3x3"]
        assert list(totals) == ["solves"]


class TestReportSchema:
    """Pin the schema-4 export shape; bump the schema when changing it."""

    def test_schema_version_and_keys(self):
        report = run_portfolio(standard_portfolio(mesh_sizes=(3,),
                                                  ring_sizes=(4,)))
        payload = report.to_json_dict()
        assert payload["schema"] == 4
        assert payload["kind"] == "repro-portfolio-report"
        assert set(payload) == {"schema", "kind", "jobs", "shard",
                                "scenarios", "summary", "session_stats",
                                "cache", "recovery"}
        assert set(payload["summary"]) == {
            "scenarios", "deadlock_free", "deadlock_prone",
            "timeouts", "errors",
            "elapsed_seconds", "jobs", "cache_hits", "cache_misses"}
        for scenario in payload["scenarios"]:
            assert set(scenario) == {
                "scenario", "topology", "routing", "switching", "condition",
                "num_vcs", "status", "error", "deadlock_free", "edges",
                "new_edges", "wall_time_s", "solver", "cycle_core",
                "escape_edges", "spec", "shard"}
            assert scenario["status"] == "ok"
            assert scenario["error"] is None
            assert scenario["wall_time_s"] >= 0
            assert isinstance(scenario["solver"], dict)
            # Schema 3: the standard portfolio is spec-built, so every
            # scenario embeds its originating spec; unsharded runs mark
            # the shard as null.
            assert scenario["spec"]["kind"] in {"mesh", "ring"}
            assert scenario["shard"] is None
        assert payload["jobs"] == 1
        assert payload["shard"] is None
        assert payload["cache"].keys() == {"hits", "misses"}

    def test_store_block_is_conditional(self, tmp_path):
        """Store-attached runs add exactly one key -- ``store`` -- and
        store-less payloads keep the pinned schema-4 key set bit for bit."""
        from repro.core.store import STORE_COUNTERS

        scenarios = standard_portfolio(mesh_sizes=(3,), ring_sizes=(4,))
        plain = run_portfolio(scenarios).to_json_dict()
        stored = run_portfolio(scenarios,
                               store=str(tmp_path / "store")).to_json_dict()
        assert "store" not in plain
        assert set(stored) == set(plain) | {"store"}
        assert set(stored["store"]) \
            == {"mode", "replayed_groups", *STORE_COUNTERS}
        assert stored["store"]["mode"] == "rw"

    def test_comparable_dict_strips_the_store_block(self, tmp_path):
        scenarios = standard_portfolio(mesh_sizes=(3,), ring_sizes=())
        report = run_portfolio(scenarios, store=str(tmp_path / "store"))
        assert report.store_stats
        assert "store" not in report.comparable_dict()

    def test_schema_4_embeds_the_originating_spec(self):
        from repro.core.spec import ScenarioSpec

        report = run_portfolio(standard_portfolio(mesh_sizes=(3,),
                                                  ring_sizes=()))
        entry = report.to_json_dict()["scenarios"][0]
        spec = ScenarioSpec.from_dict(entry["spec"])
        assert spec.kind == "mesh"
        assert spec.dims == (3, 3)
        assert spec.scenario_name() == entry["scenario"]

    def test_comparable_dict_strips_only_nondeterministic_fields(self):
        report = run_portfolio(standard_portfolio(mesh_sizes=(3,),
                                                  ring_sizes=()))
        projection = report.comparable_dict()
        assert "jobs" not in projection
        assert "cache" not in projection
        assert "shard" not in projection
        assert "recovery" not in projection  # environment history
        assert "elapsed_seconds" not in projection["summary"]
        for scenario in projection["scenarios"]:
            assert "wall_time_s" not in scenario
            assert "spec" not in scenario   # construction-path metadata
            assert "shard" not in scenario  # scheduling metadata
            assert "solver" in scenario  # deterministic, stays

    def test_write_json_roundtrip(self, tmp_path):
        import json

        report = run_portfolio(standard_portfolio(mesh_sizes=(),
                                                  ring_sizes=(4,)))
        path = tmp_path / "portfolio.json"
        report.write_json(str(path))
        payload = json.loads(path.read_text())
        assert payload["schema"] == 4
        assert payload["summary"]["scenarios"] == len(payload["scenarios"])


def _full_space_successor_sets(space_a, space_b):
    """BFS the full reachable space, comparing successor sets pointwise."""
    start = space_a.encode(space_a.initial_configuration)
    seen = {start}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        fast = sorted(space_a.successors(state))
        slow = sorted(space_b.generic_successors(state))
        assert fast == slow, f"successor mismatch at {state}"
        for successor in fast:
            if successor not in seen:
                seen.add(successor)
                queue.append(successor)
    return len(seen)


class TestFastWormholeStepper:
    def test_ring_space_matches_generic(self):
        instance = build_clockwise_ring_instance(4)
        travels = [instance.make_travel((i, 0), ((i + 2) % 4, 0), num_flits=3)
                   for i in range(4)]
        fast = ConfigurationSpace(instance, travels, capacity=1)
        slow = ConfigurationSpace(instance, travels, capacity=1,
                                  use_fast_stepper=False)
        assert fast._fast_stepper is not None
        assert slow._fast_stepper is None
        assert _full_space_successor_sets(fast, slow) > 1000

    @given(st.data())
    @settings(max_examples=12, deadline=None)
    def test_random_mesh_workloads_match_generic(self, data):
        instance = build_hermes_instance(2, 2, buffer_capacity=1)
        nodes = [(x, y) for x in range(2) for y in range(2)]
        travels = []
        for _ in range(data.draw(st.integers(1, 3))):
            source = data.draw(st.sampled_from(nodes))
            destination = data.draw(st.sampled_from(
                [n for n in nodes if n != source]))
            travels.append(instance.make_travel(
                source, destination,
                num_flits=data.draw(st.integers(1, 3))))
        fast = ConfigurationSpace(instance, travels, capacity=1)
        slow = ConfigurationSpace(instance, travels, capacity=1,
                                  use_fast_stepper=False)
        _full_space_successor_sets(fast, slow)

    def test_non_wormhole_policies_use_generic_path(self):
        for switching in (StoreAndForwardSwitching(),
                          VirtualCutThroughSwitching()):
            instance = build_hermes_instance(2, 2, switching=switching)
            travels = [instance.make_travel((0, 0), (1, 1), num_flits=2)]
            space = ConfigurationSpace(instance, travels, capacity=1)
            assert space._fast_stepper is None
            with pytest.raises(TypeError):
                ConfigurationSpace(instance, travels, capacity=1,
                                   use_fast_stepper=True)

    def test_explore_still_finds_the_ring_deadlock(self):
        instance = build_clockwise_ring_instance(4)
        travels = [instance.make_travel((i, 0), ((i + 2) % 4, 0), num_flits=3)
                   for i in range(4)]
        result = explore_configuration_space(instance, travels, capacity=1)
        assert result.deadlock_found
        assert result.complete

    def test_explore_hermes_has_no_deadlock(self):
        instance = build_hermes_instance(2, 2, buffer_capacity=1)
        travels = [instance.make_travel((0, 0), (1, 1), num_flits=2),
                   instance.make_travel((1, 1), (0, 0), num_flits=2)]
        result = explore_configuration_space(instance, travels, capacity=1)
        assert result.complete
        assert not result.deadlock_found


ACCEPTANCE_MATRIX = (
    "mesh:3x3, routing=[xy,yx,west-first,north-last,negative-first,"
    "adaptive,zigzag], switching=wormhole; "
    "mesh:3x3, routing=xy, switching=vct; "
    "mesh:4x4, routing=[xy,yx], switching=wormhole; "
    "ring:4, routing=chain; ring:4, routing=clockwise, buffers=1; "
    "vc-mesh:3x3, vcs=1..4; vc-torus:4x4, vcs=1..4; vc-ring:4, vcs=1..4"
)


class TestEngineAcceptanceFixture:
    """The verdict path's acceptance contract against an older engine.

    ``tests/data/acceptance_pr4_verdicts.json`` was generated by a SAT
    engine on the acceptance matrix.  The graph-search verdict path must
    reproduce every verdict, escape-edge set, edge count and condition
    *bit for bit*.  Cycle cores are asserted to be genuine cycle
    witnesses over the scenario's own edges: the DFS reports one simple
    cycle, never larger than the old engine's UNSAT cores, so cores are
    pinned semantically, not byte-wise.  The cross-checked run must
    also reproduce the Kahn session's peel counts.
    """

    @pytest.fixture(scope="class")
    def reports(self):
        from repro.core.portfolio import (
            merge_shard_reports,
            run_portfolio,
            scenarios_from_specs,
        )
        from repro.core.spec import expand_matrix

        scenarios = scenarios_from_specs(expand_matrix(ACCEPTANCE_MATRIX))
        full = run_portfolio(scenarios)
        weighted = merge_shard_reports(
            [run_portfolio(scenarios, shard=(index, 2),
                           shard_balance="weighted")
             for index in range(2)])
        cross_checked = run_portfolio(scenarios, cross_check=True)
        return full, weighted, cross_checked

    def test_everything_but_cores_matches_the_pre_rewrite_engine(
            self, reports):
        full, _, _ = reports
        with open(os.path.join(FIXTURE_DIR,
                               "acceptance_pr4_verdicts.json")) as handle:
            fixture = json.load(handle)
        payload = full.comparable_dict()
        del payload["session_stats"]
        for entry in payload["scenarios"]:
            del entry["solver"]
        for entry in payload["scenarios"] + fixture["scenarios"]:
            del entry["cycle_core"]
            # The fixture lists each escape set in the old solver's core
            # order; the set is what the engines must agree on.
            entry["escape_edges"] = sorted(entry["escape_edges"])
        assert payload == fixture

    def test_cycle_cores_are_genuine_and_no_looser_than_before(self, reports):
        """Every prone scenario's core must contain a cycle, and the cores
        must stay at least as tight as the pre-rewrite engine's: per
        scenario at most 1.5x the old witness, and no larger in
        aggregate.  A future change that degrades cores to sloppy
        supersets fails here."""
        from repro.checking.graphs import DirectedGraph, find_cycle_dfs

        full, _, _ = reports
        with open(os.path.join(FIXTURE_DIR,
                               "acceptance_pr4_verdicts.json")) as handle:
            fixture = json.load(handle)
        old_cores = {entry["scenario"]: entry["cycle_core"]
                     for entry in fixture["scenarios"]}
        prone = [verdict for verdict in full.verdicts
                 if not verdict.deadlock_free]
        assert prone, "the acceptance matrix must contain prone scenarios"
        new_total = old_total = 0
        for verdict in prone:
            assert verdict.cycle_core, verdict.scenario
            old_size = len(old_cores[verdict.scenario])
            new_total += len(verdict.cycle_core)
            old_total += old_size
            assert len(verdict.cycle_core) <= 1.5 * old_size, \
                verdict.scenario
            witness = DirectedGraph()
            for source, target in verdict.cycle_core:
                witness.add_vertex(source)
                witness.add_vertex(target)
            for source, target in verdict.cycle_core:
                witness.add_edge(source, target)
            assert not find_cycle_dfs(witness).acyclic, verdict.scenario
        assert new_total <= old_total, (new_total, old_total)

    #: Peels per group of the cross-checked acceptance run: one per free
    #: scenario; for a prone one, one for the verdict (when (V-1) holds),
    #: one for the session's cycle and one per edge of that cycle.
    SESSION_SOLVES = {"mesh-3x3": 34, "mesh-4x4": 2, "ring-4": 11,
                      "vc-mesh-3x3": 17, "vc-torus-4x4": 13, "vc-ring-4": 13}

    def test_session_stats_count_the_cross_check_peels(self, reports):
        """Per group, ``{"solves": n}`` with the pinned peel count, and
        per scenario a ``solves`` delta: 1 when free, at least the verdict
        and cycle peels plus one per escape edge when prone.  A change
        to how the session walks its cycle moves these counts."""
        _, _, cross_checked = reports
        payload = cross_checked.comparable_dict()
        assert payload["session_stats"] == {
            group: {"solves": solves}
            for group, solves in self.SESSION_SOLVES.items()}
        for entry in payload["scenarios"]:
            solves = entry["solver"]["solves"]
            assert set(entry["solver"]) == {"solves"}, entry["scenario"]
            if entry["deadlock_free"]:
                assert solves == 1, entry["scenario"]
            else:
                assert solves >= 2 + len(entry["escape_edges"]), \
                    entry["scenario"]

    def test_merged_weighted_shards_equal_the_unsharded_run(self, reports):
        full, weighted, _ = reports
        assert weighted.comparable_dict() == full.comparable_dict()

    def test_cross_checked_run_matches_the_default_verdicts(self, reports):
        """The Kahn session must agree with the graph search on every
        acceptance scenario (a disagreement is an ``error`` verdict), so
        the cross-checked report equals the default one once the peel
        counts, which only the cross-check produces, are removed."""
        full, _, cross_checked = reports
        expected = full.comparable_dict()
        actual = cross_checked.comparable_dict()
        for payload in (expected, actual):
            del payload["session_stats"]
            for entry in payload["scenarios"]:
                del entry["solver"]
        assert actual == expected


class TestWeightedSharding:
    def test_lpt_assignment_is_deterministic_and_balanced(self):
        from repro.core.portfolio import weighted_shard_assignment

        costs = {"huge": 100.0, "big": 60.0, "mid": 40.0,
                 "small": 10.0, "tiny": 5.0}
        first = weighted_shard_assignment(costs, 2)
        second = weighted_shard_assignment(dict(reversed(list(costs.items()))),
                                           2)
        assert first == second, "assignment must not depend on dict order"
        # LPT: 'huge' alone on shard 0; everything else fits shard 1
        # (60 + 40 + 10 + 5 = 115 vs 100).
        assert first["huge"] == 0
        loads = [0.0, 0.0]
        for key, shard in first.items():
            loads[shard] += costs[key]
        assert max(loads) / sum(loads) < 0.6, loads

    def test_scenario_cost_grows_with_dims_and_vcs(self):
        from repro.core.portfolio import Scenario, scenario_cost
        from repro.core.spec import ScenarioSpec

        small = Scenario.from_spec(ScenarioSpec(kind="mesh", dims=(3, 3)))
        large = Scenario.from_spec(ScenarioSpec(kind="mesh", dims=(8, 8)))
        vc = Scenario.from_spec(ScenarioSpec(kind="vc-mesh", dims=(3, 3),
                                             num_vcs=4))
        assert scenario_cost(large) > scenario_cost(small)
        assert scenario_cost(vc) > scenario_cost(small)

    def test_unknown_balance_policy_is_rejected(self):
        from repro.core.portfolio import run_portfolio, standard_portfolio

        scenarios = standard_portfolio(mesh_sizes=(2,), ring_sizes=())
        with pytest.raises(ValueError, match="shard_balance"):
            run_portfolio(scenarios, shard=(0, 2), shard_balance="fair")
