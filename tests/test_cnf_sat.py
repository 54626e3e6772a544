"""Tests for the CNF machinery and the CDCL SAT solver."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.checking.cnf import CNF
from repro.checking.sat import SatSolver, brute_force_satisfiable, solve_cnf


def exactly_one(literals):
    """Clauses forcing exactly one of ``literals`` true (pairwise)."""
    return [tuple(literals)] + [
        (-first, -second) for index, first in enumerate(literals)
        for second in literals[index + 1:]]


class TestCNF:
    def test_add_clause_tracks_num_vars(self):
        cnf = CNF()
        cnf.add_clause([1, -5])
        assert cnf.num_vars == 5
        assert cnf.num_clauses == 1

    def test_zero_literal_rejected(self):
        cnf = CNF()
        with pytest.raises(ValueError):
            cnf.add_clause([1, 0])

    def test_evaluate(self):
        cnf = CNF()
        cnf.add_clause([1, 2])
        cnf.add_clause([-1])
        assert cnf.evaluate({1: False, 2: True})
        assert not cnf.evaluate({1: True, 2: True})

    def test_copy_independent(self):
        cnf = CNF()
        cnf.add_clause([1])
        clone = cnf.copy()
        clone.add_clause([2])
        assert cnf.num_clauses == 1


class TestSolverBasics:
    def test_empty_formula_is_sat(self):
        assert solve_cnf(CNF()).satisfiable

    def test_single_unit(self):
        cnf = CNF()
        cnf.add_clause([3])
        result = solve_cnf(cnf)
        assert result.satisfiable
        assert result.model[3] is True

    def test_contradictory_units(self):
        cnf = CNF()
        cnf.add_clause([1])
        cnf.add_clause([-1])
        assert not solve_cnf(cnf).satisfiable

    def test_empty_clause_is_unsat(self):
        cnf = CNF()
        cnf.add_clause([])
        assert not solve_cnf(cnf).satisfiable

    def test_model_satisfies_formula(self):
        cnf = CNF()
        cnf.add_clause([1, 2, 3])
        cnf.add_clause([-1, -2])
        cnf.add_clause([-3, 2])
        result = solve_cnf(cnf)
        assert result.satisfiable
        assert cnf.evaluate(result.model)

    def test_pigeonhole_3_into_2_is_unsat(self):
        # Pigeons p in {1,2,3}, holes h in {1,2}: variable x[p][h].
        cnf = CNF()
        var = {(p, h): cnf.new_var() for p in range(3) for h in range(2)}
        for p in range(3):
            cnf.add_clause([var[(p, h)] for h in range(2)])
        for h in range(2):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    cnf.add_clause([-var[(p1, h)], -var[(p2, h)]])
        assert not solve_cnf(cnf).satisfiable

    def test_graph_colouring_sat(self):
        # A 4-cycle is 2-colourable.
        cnf = CNF()
        colour = {(v, c): cnf.new_var() for v in range(4) for c in range(2)}
        for v in range(4):
            for clause in exactly_one([colour[(v, c)] for c in range(2)]):
                cnf.add_clause(clause)
        edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
        for a, b in edges:
            for c in range(2):
                cnf.add_clause([-colour[(a, c)], -colour[(b, c)]])
        assert solve_cnf(cnf).satisfiable

    def test_triangle_not_2_colourable(self):
        cnf = CNF()
        colour = {(v, c): cnf.new_var() for v in range(3) for c in range(2)}
        for v in range(3):
            for clause in exactly_one([colour[(v, c)] for c in range(2)]):
                cnf.add_clause(clause)
        for a, b in [(0, 1), (1, 2), (2, 0)]:
            for c in range(2):
                cnf.add_clause([-colour[(a, c)], -colour[(b, c)]])
        assert not solve_cnf(cnf).satisfiable

    def test_assumptions(self):
        cnf = CNF()
        cnf.add_clause([1, 2])
        assert SatSolver(cnf).solve(assumptions=[-1]).satisfiable
        cnf2 = CNF()
        cnf2.add_clause([1])
        assert not SatSolver(cnf2).solve(assumptions=[-1]).satisfiable

    def test_stats_are_reported(self):
        cnf = CNF()
        for clause in [[1, 2], [-1, 3], [-2, -3], [1, -3], [-1, 2, 3]]:
            cnf.add_clause(clause)
        result = solve_cnf(cnf)
        assert "decisions" in result.stats
        assert "conflicts" in result.stats


@st.composite
def random_cnf(draw):
    num_vars = draw(st.integers(1, 8))
    num_clauses = draw(st.integers(1, 25))
    cnf = CNF()
    for _ in range(num_clauses):
        width = draw(st.integers(1, 4))
        clause = [draw(st.sampled_from([1, -1])) * draw(
            st.integers(1, num_vars)) for _ in range(width)]
        cnf.add_clause(clause)
    return cnf


class TestSolverAgainstBruteForce:
    @given(random_cnf())
    @settings(max_examples=150, deadline=None)
    def test_cdcl_matches_brute_force(self, cnf):
        assert solve_cnf(cnf).satisfiable == brute_force_satisfiable(cnf)

    @given(random_cnf())
    @settings(max_examples=80, deadline=None)
    def test_sat_models_are_real_models(self, cnf):
        result = solve_cnf(cnf)
        if result.satisfiable:
            assert cnf.evaluate(result.model)
