"""Tests for the flat-array CDCL core's clause management.

Covers what the object-clause engine never had: LBD ("glue") computation
at learning time, LBD-first learned-clause retention, arena garbage
collection with watcher/reason remapping, the one-sided comparator
ladder the acyclicity oracles encode edges with, and a randomized
brute-force fuzz over the incremental API.  The acceptance contract of
the rewrite -- verdict/escape-edge identity with the pre-rewrite engine
on the acceptance scenario matrix -- is pinned against a committed fixture,
and the default search itself (every solver counter per session) against
a second one.
"""

import json
import os
import random

import pytest

from repro.checking.cnf import CNF
from repro.checking.encodings import bit_name, encode_numbering_constraint
from repro.checking.sat import (
    LBD_HISTOGRAM_CAP,
    IncrementalSatSolver,
    SatSolver,
    brute_force_satisfiable,
)
from repro.checking.tseitin import TseitinEncoder

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "data")


def _solver_with_learnts(specs):
    """A solver holding manufactured learned clauses.

    ``specs`` is a list of ``(literals, lbd, activity)``; variables are
    allocated to cover every literal.  Returns the solver and the clause
    ids in ``specs`` order.
    """
    solver = IncrementalSatSolver()
    top = max(abs(lit) for literals, _, _ in specs for lit in literals)
    solver.ensure_vars(top)
    cids = []
    for literals, lbd, activity in specs:
        cid = solver._new_clause(list(literals), learned=True)
        solver._clbd[cid] = lbd
        solver._cact[cid] = activity
        cids.append(cid)
    return solver, cids


class TestLbdComputation:
    def test_learned_clauses_record_lbd(self):
        """Drive a small UNSAT-ish search and check every learned clause's
        recorded LBD is a plausible decision-level count."""
        solver = IncrementalSatSolver()
        rng = random.Random(11)
        solver.ensure_vars(30)
        for _ in range(120):
            clause = rng.sample(range(1, 31), 3)
            solver.add_clause([var if rng.random() < 0.5 else -var
                               for var in clause])
        solver.solve()
        stats = solver.stats
        assert stats["learned"] > 0
        histogram = solver.lbd_histogram()
        assert sum(histogram.values()) == stats["learned"]
        assert all(1 <= bucket <= LBD_HISTOGRAM_CAP for bucket in histogram)
        for cid in solver._learnt_cids:
            lbd = solver._clbd[cid]
            assert 1 <= lbd <= len(solver.clause_literals(cid))

    def test_histogram_is_surfaced_in_stats(self):
        solver = IncrementalSatSolver()
        rng = random.Random(5)
        solver.ensure_vars(25)
        for _ in range(110):
            clause = rng.sample(range(1, 26), 3)
            solver.add_clause([var if rng.random() < 0.5 else -var
                               for var in clause])
        solver.solve()
        stats = solver.stats
        lbd_keys = [key for key in stats if key.startswith("lbd_")]
        assert lbd_keys, "stats must carry the LBD histogram"
        assert sum(stats[key] for key in lbd_keys) == stats["learned"]


class TestReduceDbRetention:
    def test_glue_binary_and_low_lbd_survive(self):
        """LBD-first retention: high-LBD low-activity clauses go first;
        binary and glue (LBD <= 2) clauses are immortal."""
        specs = [
            ([1, 2], 5, 0.0),          # binary: immortal
            ([1, 2, 3], 2, 0.0),       # glue: immortal
            ([1, 2, 4], 9, 0.0),       # worst: highest LBD, lowest act
            ([1, 3, 4], 9, 5.0),       # same LBD, higher activity
            ([2, 3, 4], 3, 1.0),       # lowest deletable LBD
            ([1, 2, 5], 7, 0.0),
        ]
        solver, cids = _solver_with_learnts(specs)
        solver._reduce_db()
        survivors = set(solver._learnt_cids)
        literals = {tuple(solver.clause_literals(cid)) for cid in survivors}
        assert (1, 2) in literals, "binary clause must survive"
        assert (1, 2, 3) in literals, "glue clause must survive"
        # Half of the six learnts are deleted, worst-first:
        # (lbd=9, act=0), (lbd=9, act=5), (lbd=7, act=0).
        assert solver.stats["deleted"] == 3
        assert (1, 2, 4) not in literals
        assert (1, 3, 4) not in literals
        assert (1, 2, 5) not in literals
        assert (2, 3, 4) in literals

    def test_retention_ranking_is_lbd_then_activity(self):
        specs = [
            ([1, 2, 3], 4, 9.0),   # lower LBD beats higher activity
            ([1, 2, 4], 8, 99.0),
            ([1, 3, 4], 8, 1.0),   # same LBD: lower activity goes first
            ([2, 3, 4], 8, 2.0),
        ]
        solver, cids = _solver_with_learnts(specs)
        solver._reduce_db()
        literals = {tuple(solver.clause_literals(cid))
                    for cid in solver._learnt_cids}
        assert solver.stats["deleted"] == 2
        assert (1, 2, 3) in literals        # best LBD survives
        assert (1, 2, 4) in literals        # highest activity among LBD-8
        assert (1, 3, 4) not in literals    # worst two deleted
        assert (2, 3, 4) not in literals


class TestArenaCompaction:
    def test_watchers_and_reasons_survive_gc(self):
        specs = [
            ([1, 2, 3], 8, 0.0),
            ([1, 2, 4], 8, 1.0),
            ([2, 3, 4], 8, 2.0),
            ([3, 4, 5], 8, 3.0),
        ]
        solver, _ = _solver_with_learnts(specs)
        solver.add_clause([1, 2])          # a problem clause for company
        before = solver.stats
        solver._reduce_db()
        after = solver.stats
        assert after["arena_gcs"] == before["arena_gcs"] + 1
        assert after["arena_reclaimed"] > 0
        assert solver.check_watch_invariants() == []
        # The arena is gap-free: offsets are cumulative sizes.
        offset = 0
        for cid in range(len(solver._coff)):
            assert solver._coff[cid] == offset
            offset += solver._csize[cid]
        assert offset == len(solver._arena)

    def test_solver_still_correct_after_gc(self):
        """Force deletions during a real search, then check invariants and
        cross-check the verdict on a fresh solver."""
        # A satisfiable instance whose search reaches reduce-db (the test
        # is specifically about deletions + GC during search).
        rng = random.Random(8)
        cnf = CNF()
        for _ in range(480):
            variables = rng.sample(range(1, 121), 3)
            cnf.add_clause([var if rng.random() < 0.5 else -var
                            for var in variables])
        solver = SatSolver(cnf)
        result = solver.solve()
        stats = solver.engine.stats
        assert stats["deleted"] > 0, "workload must trigger reduce_db"
        assert stats["arena_gcs"] > 0
        assert solver.engine.check_watch_invariants() == []
        assert result.satisfiable
        assert cnf.evaluate({var: result.model.get(var, False)
                             for var in cnf.variables()})
        # Still usable incrementally after GC.
        assert solver.solve([1]).satisfiable or solver.solve([-1]).satisfiable


class TestComparatorLadder:
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_ladder_means_strictly_less_than(self, width):
        """Assuming the ladder root plus fixed bit values is satisfiable
        exactly when target < source as integers."""
        for target_value in range(2 ** width):
            for source_value in range(2 ** width):
                encoder = TseitinEncoder()
                root = encode_numbering_constraint(encoder, 0, 1, width)
                cnf = encoder.cnf
                for bit in range(width):
                    for index, value in ((0, target_value),
                                         (1, source_value)):
                        literal = cnf.var(bit_name(index, bit))
                        cnf.add_unit(literal if (value >> bit) & 1
                                     else -literal)
                cnf.add_unit(root)
                expected = target_value < source_value
                assert brute_force_satisfiable(cnf) == expected, \
                    (width, target_value, source_value)

    def test_ladder_is_assertable_without_bit_units(self):
        """One-sided encoding: the root can always be asserted when the
        comparison is possible (width permitting two distinct values)."""
        for width in (1, 2, 3):
            encoder = TseitinEncoder()
            root = encode_numbering_constraint(encoder, 0, 1, width)
            encoder.cnf.add_unit(root)
            assert brute_force_satisfiable(encoder.cnf)


class TestRandomizedBruteForceFuzz:
    def test_solver_agrees_with_brute_force_on_200_instances(self):
        """The tier-1 randomized cross-check: 200 seeded random CNFs,
        solved one-shot, under assumptions, and after incremental clause
        addition -- every verdict against the exponential evaluator."""
        rng = random.Random(2010)
        for instance in range(200):
            num_vars = rng.randint(1, 8)
            num_clauses = rng.randint(1, 24)
            cnf = CNF()
            for _ in range(num_clauses):
                width = rng.randint(1, 4)
                cnf.add_clause([rng.choice([1, -1]) * rng.randint(1, num_vars)
                                for _ in range(width)])
            solver = SatSolver(cnf.copy())
            assert solver.solve().satisfiable \
                == brute_force_satisfiable(cnf), f"instance {instance}"
            # A couple of assumption queries on the same solver.
            for _ in range(2):
                count = rng.randint(0, num_vars)
                assumptions = [rng.choice([1, -1]) * var for var in
                               rng.sample(range(1, num_vars + 1), count)]
                reference = cnf.copy()
                for literal in assumptions:
                    reference.add_unit(literal)
                assert solver.solve(assumptions).satisfiable \
                    == brute_force_satisfiable(reference), \
                    f"instance {instance} assumptions {assumptions}"
            # Strengthen incrementally and re-check.
            extra = [rng.choice([1, -1]) * rng.randint(1, num_vars)
                     for _ in range(rng.randint(1, 3))]
            cnf.add_clause(extra)
            solver.add_clause(extra)
            assert solver.solve().satisfiable \
                == brute_force_satisfiable(cnf), \
                f"instance {instance} after addition"

    def test_engine_vs_brute_force_and_renamed(self):
        """The default engine (Luby restarts, chronological backtracking,
        vivification) against brute force over incremental clause batches
        with assumption queries in between; every model and core is
        checked against the original clauses.

        Chrono backtracking and vivification only trigger on searches
        with real backjump depth and reduce-db pressure, so the second
        half runs phase-transition 3-SAT instances (too big for brute
        force): every model must satisfy every clause, and the verdict
        must equal the verdict on a variable-renamed, clause-shuffled
        copy of the same formula, which sends the search down a
        different path."""
        rng = random.Random(88)
        for instance in range(60):
            num_vars = rng.randint(8, 13)
            solver = IncrementalSatSolver()
            cnf = CNF()
            for batch in range(3):
                batch_clauses = []
                for _ in range(rng.randint(30, 45)):
                    width = rng.randint(2, 3)
                    clause = [rng.choice([1, -1]) * var for var in
                              rng.sample(range(1, num_vars + 1), width)]
                    batch_clauses.append(clause)
                    cnf.add_clause(clause)
                solver.add_clauses(batch_clauses)
                count = rng.randint(0, 3)
                assumptions = [rng.choice([1, -1]) * var for var in
                               rng.sample(range(1, num_vars + 1), count)]
                reference = cnf.copy()
                for literal in assumptions:
                    reference.add_unit(literal)
                result = solver.solve(assumptions)
                context = f"instance {instance} batch {batch} {assumptions}"
                assert result.satisfiable \
                    == brute_force_satisfiable(reference), context
                if result.satisfiable:
                    model = result.model
                    for literal in assumptions:
                        assert model.get(abs(literal)) == (literal > 0), \
                            context
                    for clause in cnf.clauses:
                        assert any(model.get(abs(lit)) == (lit > 0)
                                   for lit in clause), (context, clause)
                else:
                    core = result.core or []
                    assert set(core) <= set(assumptions), context
                    reference = cnf.copy()
                    for literal in core:
                        reference.add_unit(literal)
                    assert not brute_force_satisfiable(reference), \
                        (context, core)
        deep = {"chrono_backtracks": 0, "vivified_clauses": 0}
        rng = random.Random(3)
        shuffler = random.Random(4)
        for instance in range(6):
            clauses = []
            for _ in range(int(60 * 4.26)):
                variables = rng.sample(range(1, 61), 3)
                clauses.append([rng.choice([1, -1]) * var
                                for var in variables])
            renaming = list(range(1, 61))
            shuffler.shuffle(renaming)
            renamed = [[renaming[abs(lit) - 1] * (1 if lit > 0 else -1)
                        for lit in clause] for clause in clauses]
            shuffler.shuffle(renamed)
            solver = IncrementalSatSolver()
            twin = IncrementalSatSolver()
            solver.add_clauses(clauses)
            twin.add_clauses(renamed)
            result = solver.solve()
            twin_result = twin.solve()
            assert result.satisfiable == twin_result.satisfiable, \
                f"hard instance {instance}"
            for formula, outcome in ((clauses, result),
                                     (renamed, twin_result)):
                if outcome.satisfiable:
                    for clause in formula:
                        assert any(outcome.model[abs(lit)] == (lit > 0)
                                   for lit in clause), (instance, clause)
            for key in deep:
                deep[key] += solver.stats[key]
        assert deep["chrono_backtracks"] > 0, deep
        assert deep["vivified_clauses"] > 0, deep


ACCEPTANCE_MATRIX = (
    "mesh:3x3, routing=[xy,yx,west-first,north-last,negative-first,"
    "adaptive,zigzag], switching=wormhole; "
    "mesh:3x3, routing=xy, switching=vct; "
    "mesh:4x4, routing=[xy,yx], switching=wormhole; "
    "ring:4, routing=chain; ring:4, routing=clockwise, buffers=1; "
    "vc-mesh:3x3, vcs=1..4; vc-torus:4x4, vcs=1..4; vc-ring:4, vcs=1..4"
)


class TestEngineAcceptanceFixture:
    """The rewrite's acceptance contract against the pre-rewrite engine.

    ``tests/data/acceptance_pr4_verdicts.json`` was generated by the
    object-clause SAT engine on the PR-4 acceptance matrix.  The
    graph-search verdict path must reproduce every verdict, escape-edge
    set, edge count and condition *bit for bit*.  Cycle cores are
    asserted to be genuine cycle witnesses over the scenario's own
    edges: the DFS reports one simple cycle, never larger than the old
    engine's UNSAT cores, so cores are pinned semantically, not
    byte-wise -- see docs/solver.md.  The cross-checked run must also
    reproduce the CDCL session's counters
    (``tests/data/acceptance_session_stats.json``).
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

    def test_session_stats_pin_the_default_search(self, reports):
        """The default search, counter for counter: per group, every
        solver counter in ``tests/data/acceptance_session_stats.json``
        (decisions, propagations, conflicts, restarts, LBD histogram,
        chrono/vivify counts, ...) must come out exactly, and any counter
        the fixture does not list must be zero.  The verdict fixtures
        above strip these counters, so this is what pins that a solver
        refactor kept the search itself unchanged.  Only a cross-checked
        run drives the solver, so the pin is taken on one."""
        _, _, cross_checked = reports
        with open(os.path.join(FIXTURE_DIR,
                               "acceptance_session_stats.json")) as handle:
            fixture = json.load(handle)
        session_stats = cross_checked.comparable_dict()["session_stats"]
        assert sorted(session_stats) == sorted(fixture)
        for group, stats in session_stats.items():
            pinned = fixture[group]
            assert {key: stats.get(key) for key in pinned} == pinned, group
            extra = {key: value for key, value in stats.items()
                     if key not in pinned}
            assert not any(extra.values()), (group, extra)

    def test_merged_weighted_shards_equal_the_unsharded_run(self, reports):
        full, weighted, _ = reports
        assert weighted.comparable_dict() == full.comparable_dict()

    @pytest.mark.parametrize("settings", [
        {"CHRONO_THRESHOLD": 0, "VIVIFY_MAX_CLAUSES": 0},
        {"CHRONO_THRESHOLD": 1, "VIVIFY_MAX_CLAUSES": 10 ** 6},
    ], ids=["techniques-off", "techniques-aggressive"])
    def test_knob_settings_leave_acceptance_verdicts_identical(
            self, reports, settings, monkeypatch):
        """Verdict byte-identity across solver heuristics: the acceptance
        matrix cross-checked with chronological backtracking and
        vivification switched off, and with both turned up (step back one
        level on any backjump over two or more levels, vivify every
        learned clause), must agree with the graph search (a disagreement
        is an error verdict) and equal the default run scenario for
        scenario -- heuristics may only move work counters, never
        answers, escape sets or conditions."""
        from repro.checking import sat
        from repro.core.portfolio import run_portfolio, scenarios_from_specs
        from repro.core.spec import expand_matrix

        full, _, _ = reports
        for name, value in settings.items():
            monkeypatch.setattr(sat, name, value)
        report = run_portfolio(
            scenarios_from_specs(expand_matrix(ACCEPTANCE_MATRIX)),
            cross_check=True)
        expected = full.comparable_dict()
        actual = report.comparable_dict()
        del expected["session_stats"]
        del actual["session_stats"]
        for entry in expected["scenarios"] + actual["scenarios"]:
            # Work counters exist only under the cross-check; verdicts,
            # escape edges, conditions and edge counts may not vary.
            entry.pop("solver", None)
            entry.pop("cycle_core", None)
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
