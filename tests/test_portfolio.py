"""Tests for the incremental deadlock-query session, the portfolio batch
driver, and the fast key-level wormhole stepper of the state-space
explorer (cross-validated against the generic decode-based path)."""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.checking.bmc import ConfigurationSpace, explore_configuration_space
from repro.checking.encodings import is_acyclic_by_sat
from repro.core.deadlock import DeadlockQuerySession
from repro.core.dependency import routing_dependency_graph
from repro.core.portfolio import (
    PortfolioReport,
    Scenario,
    run_portfolio,
    standard_portfolio,
)
from repro.core.theorems import check_deadlock_freedom
from repro.hermes import build_exy_graph, build_hermes_instance
from repro.network.mesh import Mesh2D
from repro.ringnoc import (
    build_chain_ring_instance,
    build_clockwise_ring_instance,
)
from repro.routing.adaptive import ZigZagRouting
from repro.switching.store_and_forward import StoreAndForwardSwitching
from repro.switching.virtual_cut_through import VirtualCutThroughSwitching


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
    def test_cdcl_deciders_agree_beyond_toy_sizes(self, build, free,
                                                  escapable):
        """The one-shot SAT encoding and the session reach the same
        verdict; only the ring's cycles share an edge whose removal breaks
        them all."""
        graph = build()
        assert is_acyclic_by_sat(graph) is free
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
        # Later scenarios re-use earlier encodings: at least one scenario
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
        decide every condition kind without a CDCL session."""
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
         ("graph search free=False with 8", "CDCL session free=True")),
        ("cycle_core_for", lambda self, edges: [],
         ("graph search free=False with 8",
          "CDCL session free=False with 0")),
    ], ids=["verdict", "escape-set"])
    def test_cross_check_disagreement_is_an_error_verdict(
            self, monkeypatch, method, stub, answers):
        """A CDCL session that calls every query free, or finds no core,
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
        bit for bit -- verdicts, ordering, cores, solver statistics --
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
        session = report.session_stats["mesh-3x3"]
        for key in ("decisions", "conflicts", "solves"):
            assert totals[key] == session[key]


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
