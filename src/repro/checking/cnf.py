"""CNF formulas with integer literals (DIMACS convention).

A literal is a non-zero integer: ``v`` for the positive literal of variable
``v`` and ``-v`` for its negation.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Mapping, Set, Tuple

Literal = int
Clause = Tuple[Literal, ...]


class CNF:
    """A formula in conjunctive normal form."""

    def __init__(self) -> None:
        self.clauses: List[Clause] = []
        self._num_vars = 0

    # -- variables ---------------------------------------------------------------
    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def new_var(self) -> int:
        """Allocate a fresh variable."""
        self._num_vars += 1
        return self._num_vars

    # -- clauses --------------------------------------------------------------------
    def add_clause(self, literals: Iterable[Literal]) -> None:
        clause = tuple(literals)
        if not clause:
            # An empty clause makes the formula trivially unsatisfiable; we
            # keep it so the solver reports UNSAT rather than silently
            # dropping it.
            self.clauses.append(clause)
            return
        num_vars = self._num_vars
        for literal in clause:
            if literal == 0:
                raise ValueError("0 is not a valid literal")
            var = literal if literal > 0 else -literal
            if var > num_vars:
                num_vars = var
        self._num_vars = num_vars
        self.clauses.append(clause)

    def add_unit(self, literal: Literal) -> None:
        self.add_clause((literal,))

    def iter_clauses(self, start: int = 0) -> Iterator[Clause]:
        """The canonical clause-iteration path (clauses ``start`` onward).

        Every consumer that walks the clause set -- evaluation, variable
        enumeration, solver clause streaming -- goes through this
        iterator.  (The *write* side has a second, raw path: the
        comparator ladder in ``encodings.py`` appends validated tuples to
        ``self.clauses`` directly, bypassing :meth:`add_clause` -- safe
        because every literal it emits is already allocated.)
        """
        clauses = self.clauses
        return iter(clauses[start:]) if start else iter(clauses)

    # -- evaluation --------------------------------------------------------------------
    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        """Evaluate under a total assignment (variable -> bool)."""
        for clause in self.iter_clauses():
            if not any(self.literal_value(literal, assignment)
                       for literal in clause):
                return False
        return True

    @staticmethod
    def literal_value(literal: Literal, assignment: Mapping[int, bool]) -> bool:
        """Truth of one literal under ``assignment``."""
        value = assignment[abs(literal)]
        return value if literal > 0 else not value

    def variables(self) -> Set[int]:
        return {abs(literal) for clause in self.iter_clauses()
                for literal in clause}

    def has_empty_clause(self) -> bool:
        """Does the formula contain the (trivially false) empty clause?"""
        return any(len(clause) == 0 for clause in self.iter_clauses())

    def copy(self) -> "CNF":
        clone = CNF()
        clone.clauses = list(self.clauses)
        clone._num_vars = self._num_vars
        return clone

    def __str__(self) -> str:
        return (f"CNF({self.num_vars} variables, "
                f"{self.num_clauses} clauses)")

