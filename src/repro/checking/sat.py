"""An incremental CDCL SAT solver over a flat clause arena.

The solver implements the standard conflict-driven clause-learning loop:

* two-watched-literal unit propagation over **literal-indexed watcher
  lists** whose entries carry a *blocker* literal (a clause known to be
  satisfied while its blocker is true is skipped without touching clause
  memory),
* a **flat clause arena**: every clause lives in one shared int list,
  referenced by a dense clause id with offset/length kept in parallel
  arrays -- no per-clause Python objects,
* first-UIP conflict analysis with clause learning, learned-clause
  minimisation and non-chronological backjumping,
* VSIDS-style activity-based decision heuristic backed by a binary heap,
  with phase saving,
* Luby-sequence restarts,
* **incremental use**: clauses can be added between ``solve`` calls, a
  single solver instance can be re-queried many times, and each query can
  be made under *assumptions* (temporary unit hypotheses).  When a query is
  unsatisfiable because of its assumptions, the solver reports a *core*: a
  subset of the assumptions that is already inconsistent with the formula.

Assumptions are handled MiniSat-style: each assumption literal is placed as
a decision on its own decision level before any search decision is taken, so
everything the solver learns remains valid for later queries with different
assumptions.  This is what makes the repeated deadlock queries of
:mod:`repro.core.deadlock` and the portfolio driver of
:mod:`repro.core.portfolio` cheap: the CNF is encoded once and every
topology/routing scenario is a fresh set of assumptions on the same solver.

Learned clauses are never deleted: they live as long as their solver.
The solver's callers (the ``--cross-check`` sessions, ``repro fuzz``,
``repro deadlock``) learn a few thousand clauses per session at most.

The solver is deterministic: two runs on the same formula take the same
decisions and return the same model and statistics.
Correctness is cross-checked against a brute-force evaluator in the test
suite (see ``tests/test_sat_incremental.py`` and
``tests/test_clause_management.py``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.checking.cnf import CNF, Literal
from repro.core.errors import SolverTimeout

#: Truth values of the literal-indexed assignment array.
_UNASSIGNED, _TRUE, _FALSE = 0, 1, 2

#: How many conflicts pass between cooperative interrupt checks.  The
#: callback runs off the hot path (one int test per conflict, the callback
#: itself only every Nth conflict), so a solve honours a budget within a
#: few hundred conflicts of it expiring.
INTERRUPT_CHECK_INTERVAL = 64


@dataclass
class SatResult:
    """Outcome of a SAT call."""

    satisfiable: bool
    model: Optional[Dict[int, bool]] = None
    #: Statistics of the search (decisions, propagations, conflicts, restarts).
    stats: Dict[str, int] = field(default_factory=dict)
    #: When UNSAT under assumptions: a subset of the assumptions that is
    #: already inconsistent with the formula (``None`` when the formula
    #: itself is unsatisfiable, or when the result is SAT).
    core: Optional[List[Literal]] = None


class _VarHeap:
    """Max-"heap" over variables ordered by VSIDS activity.

    Ties are broken by variable index (smaller first) so that the decision
    order -- and therefore the whole search -- is deterministic.

    Implemented over :mod:`heapq` (C-backed) with *lazy* entries: every
    push/activity-update appends a ``(-activity, var, version)`` tuple and
    bumps the variable's version; entries whose version is no longer
    current are skipped on pop.  This replaces the pure-Python sift loops
    of a classic indexed binary heap -- which profiling showed dominating
    incremental workloads (tens of thousands of pops per solve) -- while
    popping variables in exactly the same (activity desc, index asc)
    order.
    """

    __slots__ = ("_activity", "_entries", "_version", "_in_heap", "_size")

    def __init__(self, activity: List[float]) -> None:
        self._activity = activity
        # (-activity-at-push, var, version) tuples; stale versions skipped.
        self._entries: List[Tuple[float, int, int]] = []
        self._version: List[int] = [0]
        self._in_heap: List[bool] = [False]
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def pop(self) -> int:
        entries = self._entries
        version = self._version
        in_heap = self._in_heap
        while True:
            _, var, entry_version = heappop(entries)
            if in_heap[var] and version[var] == entry_version:
                in_heap[var] = False
                self._size -= 1
                return var

    def push_fresh(self, start: int, stop: int) -> None:
        """Bulk-push the freshly allocated variables ``start..stop-1``.

        Requires the variables to be brand new (``start`` equal to the
        current array length); used by ``ensure_vars``.
        """
        assert start == len(self._in_heap)
        in_heap = self._in_heap
        version = self._version
        activity = self._activity
        entries = self._entries
        for var in range(start, stop):
            in_heap.append(True)
            version.append(1)
            heappush(entries, (-activity[var], var, 1))
        self._size += stop - start

    def rebuild(self) -> None:
        """Rebuild every live entry from current activities.

        Needed after a global activity rescale: live entries carry the
        pre-rescale keys, which would compare inconsistently against
        entries pushed after the rescale.  Rescales are rare (activity
        overflow past 1e100), so the full rebuild is cheap amortised.
        """
        self._entries = [(-self._activity[var], var, self._version[var])
                         for var in range(1, len(self._in_heap))
                         if self._in_heap[var]]
        heapify(self._entries)


class IncrementalSatSolver:
    """A CDCL solver that supports incremental clause addition and
    solve-under-assumptions.

    The intended use is *encode once, query many times*::

        solver = IncrementalSatSolver()
        selector = solver.new_var()
        solver.add_clause([-selector, a, b])   # selector -> (a | b)
        solver.solve(assumptions=[selector])   # with the clause enabled
        solver.solve(assumptions=[-selector])  # with the clause disabled

    All learned clauses are kept between queries, so repeated related
    queries get monotonically faster.

    Internally the solver is a *flat-array engine*: clause literals live in
    one shared int arena (``_arena``), clauses are dense ids indexing the
    parallel ``_coff``/``_csize`` arrays, truth values live in a
    literal-indexed bytearray and watcher lists are flat
    ``[clause_id, blocker, ...]`` int lists -- no per-clause or per-watch
    Python objects on the propagation path.
    """

    def __init__(self, trace=None) -> None:
        self._num_vars = 0
        # Literal-indexed state: index ``_center + literal`` is valid for
        # every |literal| <= _cap, so truth lookups need no branch on the
        # literal's sign.  Grown geometrically by _grow_literal_arrays.
        self._cap = 0
        self._center = 0
        self._lit_val = bytearray(1)
        #: Watcher lists, one per literal slot; each list is a flat
        #: ``[clause_id, blocker, clause_id, blocker, ...]`` int sequence.
        self._watches: List[List[int]] = [[]]
        # The clause arena: all clause literals in one int list.  A clause
        # is a dense id ``cid`` with literals at
        # ``_arena[_coff[cid] : _coff[cid] + _csize[cid]]``; the watched
        # pair sits at offsets 0 and 1.
        self._arena: List[int] = []
        self._coff: List[int] = []
        self._csize: List[int] = []
        # Per-variable state, 1-indexed (slot 0 unused).  Reasons are
        # clause ids (-1: decision / level-0 fact).
        self._level: List[int] = [0]
        self._reason: List[int] = [-1]
        self._activity: List[float] = [0.0]
        self._polarity = bytearray(1)
        self._heap = _VarHeap(self._activity)
        self._trail: List[Literal] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._ok = True
        self._activity_inc = 1.0
        self._activity_decay = 0.95
        #: Assumptions of the previous solve, for prefix-trail reuse.
        self._last_assumptions: List[Literal] = []
        self._stats = {"decisions": 0, "propagations": 0, "conflicts": 0,
                       "restarts": 0, "learned": 0, "solves": 0,
                       "minimised": 0}
        self._last_core: Optional[List[Literal]] = None
        # Reusable conflict-analysis scratch buffer (one byte per variable,
        # slot 0 unused); cleared selectively after every analysis so no
        # per-conflict allocation is needed.
        self._seen = bytearray(1)
        #: Optional :class:`repro.core.trace.TraceWriter`.  ``None`` keeps
        #: every trace hook to a single pointer test off the propagation
        #: loop -- behaviour and verdicts are identical to an untraced
        #: solver (pinned by the trace test suite).
        self._trace = trace
        # Conflict count at which the next ``solver_phase`` sample is due,
        # and the stat snapshot the sample's deltas are computed against.
        self._trace_phase_mark = 0
        self._trace_phase_snapshot: Dict[str, int] = {}
        # Cooperative interrupt: a callback polled every
        # INTERRUPT_CHECK_INTERVAL conflicts (and periodically between
        # decisions); a truthy return aborts the solve via SolverTimeout.
        self._interrupt = None
        self._interrupt_mark = 0

    # -- cooperative interruption ---------------------------------------------------
    def set_interrupt(self, callback) -> None:
        """Install (or clear) the cooperative solve budget.

        ``callback`` takes no arguments and returns a falsy value while
        the solve may continue, or a reason string once the budget is
        exhausted -- e.g. ``lambda: time.monotonic() > deadline and
        "group deadline"``.  It is polled every
        :data:`INTERRUPT_CHECK_INTERVAL` conflicts and every 1024
        decisions; when it fires, the running (and any later) ``solve``
        raises :class:`SolverTimeout` after restoring decision level 0, so
        incremental state and the UNSAT-core machinery stay intact for
        whoever clears the interrupt and queries again.  Pass ``None`` to
        remove the budget.
        """
        self._interrupt = callback
        self._interrupt_mark = 0

    def _check_interrupt(self, trace, stats_before: Dict[str, int]) -> None:
        reason = self._interrupt()
        if reason:
            # Unwind to level 0: the trail keeps only facts, so future
            # queries (after the budget is lifted) start from a clean,
            # consistent state and prefix reuse simply restarts.
            self._cancel_until(0)
            self._last_assumptions = []
            self._last_core = None
            if trace is not None:
                # Close the solve span (``sat`` null: no verdict) so the
                # stream stays balanced for validate_trace.
                self._emit_trace_solve_end(trace, stats_before, None)
            raise SolverTimeout(str(reason))

    # -- variables ----------------------------------------------------------------
    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def stats(self) -> Dict[str, int]:
        """Search statistics (a copy); the same key set on every path."""
        return dict(self._stats)

    def new_var(self) -> int:
        """Allocate a fresh variable and return its index."""
        self.ensure_vars(self._num_vars + 1)
        return self._num_vars

    def ensure_vars(self, count: int) -> None:
        """Grow the variable range to at least ``count`` variables.

        Bulk form of :meth:`new_var` (one extend per array instead of many
        appends per variable) -- encodings allocate variables in bursts
        through this path.
        """
        grow = count - self._num_vars
        if grow <= 0:
            return
        start = self._num_vars + 1
        self._num_vars = count
        self._level.extend([0] * grow)
        self._reason.extend([-1] * grow)
        self._activity.extend([0.0] * grow)
        self._polarity.extend(b"\x00" * grow)
        self._seen.extend(b"\x00" * grow)
        if count > self._cap:
            self._grow_literal_arrays(count)
        self._heap.push_fresh(start, count + 1)

    def _grow_literal_arrays(self, needed: int) -> None:
        """Re-centre the literal-indexed arrays for |literal| <= needed.

        Growth is geometric, so re-centring (which copies the assignment
        bytes and re-homes the existing watch-list objects) stays rare and
        amortised-free even when variables arrive one at a time.
        """
        new_cap = max(needed, 2 * self._cap, 64)
        old_cap = self._cap
        new_center = new_cap
        new_lit_val = bytearray(2 * new_cap + 1)
        new_lit_val[new_center - old_cap:new_center + old_cap + 1] = \
            self._lit_val
        new_watches: List[List[int]] = [[] for _ in range(2 * new_cap + 1)]
        new_watches[new_center - old_cap:new_center + old_cap + 1] = \
            self._watches
        self._lit_val = new_lit_val
        self._watches = new_watches
        self._cap = new_cap
        self._center = new_center

    # -- assignment helpers --------------------------------------------------------
    def _value(self, literal: Literal) -> Optional[bool]:
        value = self._lit_val[self._center + literal]
        if value == _UNASSIGNED:
            return None
        return value == _TRUE

    @property
    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _enqueue(self, literal: Literal, reason: int) -> None:
        lit_val = self._lit_val
        center = self._center
        lit_val[center + literal] = _TRUE
        lit_val[center - literal] = _FALSE
        var = literal if literal > 0 else -literal
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(literal)

    def _cancel_until(self, level: int) -> None:
        """Undo all assignments above ``level`` (phase-saving the polarity)."""
        if len(self._trail_lim) <= level:
            return
        trail = self._trail
        lit_val = self._lit_val
        center = self._center
        polarity = self._polarity
        reason = self._reason
        activity = self._activity
        heap = self._heap
        in_heap = heap._in_heap
        version = heap._version
        entries = heap._entries
        pushed = 0
        limit = self._trail_lim[level]
        for literal in reversed(trail[limit:]):
            var = literal if literal > 0 else -literal
            polarity[var] = literal > 0
            lit_val[center + literal] = _UNASSIGNED
            lit_val[center - literal] = _UNASSIGNED
            reason[var] = -1
            # Inlined lazy-heap push (hot: every backtracked variable).
            if not in_heap[var]:
                in_heap[var] = True
                entry_version = version[var] + 1
                version[var] = entry_version
                heappush(entries, (-activity[var], var, entry_version))
                pushed += 1
        heap._size += pushed
        del trail[limit:]
        del self._trail_lim[level:]
        if self._qhead > limit:
            self._qhead = limit

    # -- clause addition -----------------------------------------------------------
    def _new_clause(self, literals: List[Literal]) -> int:
        """Append a learned clause to the arena and attach its watchers.

        The first two literals become the watched pair; each watcher
        carries the *other* watched literal as its initial blocker.
        """
        arena = self._arena
        cid = len(self._coff)
        self._coff.append(len(arena))
        self._csize.append(len(literals))
        arena.extend(literals)
        watches = self._watches
        center = self._center
        first, second = literals[0], literals[1]
        watch_list = watches[center + first]
        watch_list.append(cid)
        watch_list.append(second)
        watch_list = watches[center + second]
        watch_list.append(cid)
        watch_list.append(first)
        return cid

    def add_clause(self, literals: Iterable[Literal]) -> bool:
        """Add a clause; returns ``False`` when the formula became UNSAT.

        Can be called at any time, also between ``solve`` calls: the solver
        first backtracks to decision level 0.  Literals over unseen variables
        grow the variable range automatically.

        One-clause form of :meth:`add_clauses` (which holds the single
        copy of the simplify/dedup/attach logic); every bulk consumer
        streams through :meth:`add_clauses` directly.
        """
        return self.add_clauses((literals,))

    def add_clauses(self, clauses: Iterable[Iterable[Literal]]) -> bool:
        """Stream many clauses into the arena (see :meth:`add_clause`).

        Semantically a loop of :meth:`add_clause`, but with the per-clause
        state (assignment bytes, arena, watcher table) hoisted out of the
        loop -- whole encodings (thousands of clauses per session) load
        through this path, and the hoisting is worth ~25% of load time.

        An **empty** stream leaves the solver untouched: the sync layers
        call this between every pair of solves (usually with nothing new),
        and backtracking would needlessly destroy the assumption-prefix
        trail that :meth:`solve` reuses.  The backtrack to level 0
        happens only once the first real clause arrives.
        """
        if not self._ok:
            return False
        iterator = iter(clauses)
        for probe in iterator:
            first_batch = (probe,)
            break
        else:
            return True  # nothing to add: keep the reusable trail intact
        if self._trail_lim:
            self._cancel_until(0)
        clauses = itertools.chain(first_batch, iterator)
        lit_val = self._lit_val
        center = self._center
        num_vars = self._num_vars
        arena = self._arena
        coff = self._coff
        csize = self._csize
        watches = self._watches
        ok = True
        for literals in clauses:
            clause: List[Literal] = []
            satisfied = False
            tautology = False
            for literal in literals:
                if literal == 0:
                    raise ValueError("0 is not a valid literal")
                var = literal if literal > 0 else -literal
                if var > num_vars:
                    self.ensure_vars(var)
                    lit_val = self._lit_val
                    center = self._center
                    num_vars = self._num_vars
                    watches = self._watches
                value = lit_val[center + literal]
                if value:
                    if value == 1:
                        satisfied = True
                    else:
                        continue
                if literal in clause:
                    continue
                if -literal in clause:
                    tautology = True
                    break
                clause.append(literal)
            if tautology or satisfied:
                continue
            if not clause:
                self._ok = False
                ok = False
                break
            if len(clause) == 1:
                self._enqueue(clause[0], -1)
                if self._propagate() >= 0:
                    self._ok = False
                    ok = False
                    break
                continue
            cid = len(coff)
            coff.append(len(arena))
            csize.append(len(clause))
            arena.extend(clause)
            first, second = clause[0], clause[1]
            watch_list = watches[center + first]
            watch_list.append(cid)
            watch_list.append(second)
            watch_list = watches[center + second]
            watch_list.append(cid)
            watch_list.append(first)
        return ok

    # -- propagation ---------------------------------------------------------------
    def _propagate(self) -> int:
        """Unit propagation from the current queue head.

        Returns the conflicting clause id, or ``-1``.

        This is the solver's hottest loop, so it trades a little clarity
        for constant factors: watcher entries are flat ``cid, blocker``
        int pairs; a true blocker skips the clause with a single bytearray
        read; clause literals are read straight from the arena (the false
        watch is normalised to slot 1 in place); watcher lists are
        compacted in place (two-pointer style); and the propagation
        counter is flushed to the stats dict once per call.
        """
        trail = self._trail
        qhead = self._qhead
        if qhead >= len(trail):
            # Nothing queued (common between assumption placements): skip
            # the localisation preamble entirely.
            return -1
        watches = self._watches
        lit_val = self._lit_val
        center = self._center
        arena = self._arena
        coff = self._coff
        csize = self._csize
        level = self._level
        reason = self._reason
        current_level = len(self._trail_lim)
        propagations = 0
        conflict = -1
        trail_len = len(trail)
        while qhead < trail_len:
            literal = trail[qhead]
            qhead += 1
            propagations += 1
            false_literal = -literal
            watch_list = watches[center + false_literal]
            end = len(watch_list)
            read = write = 0
            while read < end:
                blocker = watch_list[read + 1]
                if lit_val[center + blocker] == 1:
                    # Clause satisfied by its blocker: keep, untouched.
                    # (Self-copies are skipped: until a watcher relocates,
                    # write trails read exactly and the stores are no-ops.)
                    if write != read:
                        watch_list[write] = watch_list[read]
                        watch_list[write + 1] = blocker
                    write += 2
                    read += 2
                    continue
                cid = watch_list[read]
                read += 2
                if csize[cid] == 2:
                    # Binary fast path: the blocker of a binary watcher is
                    # always the clause's other literal (watches never
                    # move), so the clause is unit or conflicting without
                    # touching the arena.  Behaviour-identical to the
                    # general path below, just fewer loads.
                    if write != read - 2:
                        watch_list[write] = cid
                        watch_list[write + 1] = blocker
                    write += 2
                    if lit_val[center + blocker]:  # == _FALSE: conflict
                        if write == read:
                            write = read = end
                        else:
                            while read < end:
                                watch_list[write] = watch_list[read]
                                watch_list[write + 1] = watch_list[read + 1]
                                write += 2
                                read += 2
                        conflict = cid
                        break
                    lit_val[center + blocker] = 1
                    lit_val[center - blocker] = 2
                    var = blocker if blocker > 0 else -blocker
                    level[var] = current_level
                    reason[var] = cid
                    trail.append(blocker)
                    trail_len += 1
                    continue
                offset = coff[cid]
                # Normalise the false watch to slot 1.
                if arena[offset] == false_literal:
                    arena[offset] = arena[offset + 1]
                    arena[offset + 1] = false_literal
                first = arena[offset]
                first_value = lit_val[center + first]
                if first_value == 1:
                    # The other watch is true: keep, with it as blocker.
                    if write != read - 2:
                        watch_list[write] = cid
                    watch_list[write + 1] = first
                    write += 2
                    continue
                # Look for a new literal to watch.
                for position in range(offset + 2, offset + csize[cid]):
                    candidate = arena[position]
                    if lit_val[center + candidate] != 2:
                        arena[offset + 1] = candidate
                        arena[position] = false_literal
                        other_list = watches[center + candidate]
                        other_list.append(cid)
                        other_list.append(first)
                        break
                else:
                    # Clause is unit or conflicting.
                    if write != read - 2:
                        watch_list[write] = cid
                    watch_list[write + 1] = first
                    write += 2
                    if first_value:  # == _FALSE: every literal false
                        if write == read:
                            write = read = end
                        else:
                            while read < end:
                                watch_list[write] = watch_list[read]
                                watch_list[write + 1] = watch_list[read + 1]
                                write += 2
                                read += 2
                        conflict = cid
                        break
                    # Inlined _enqueue of the unit literal.
                    lit_val[center + first] = 1
                    lit_val[center - first] = 2
                    var = first if first > 0 else -first
                    level[var] = current_level
                    reason[var] = cid
                    trail.append(first)
                    trail_len += 1
            if write != end:
                del watch_list[write:]
            if conflict >= 0:
                qhead = trail_len
                break
        self._qhead = qhead
        self._stats["propagations"] += propagations
        return conflict

    # -- conflict analysis ---------------------------------------------------------
    def _analyse(self, conflict: int) -> Tuple[List[Literal], int]:
        """First-UIP conflict analysis.

        Returns the learned clause (asserting literal first) and the
        backjump level.
        """
        learned: List[Literal] = []
        seen = self._seen
        to_clear: List[int] = []
        trail = self._trail
        levels = self._level
        reasons = self._reason
        activity = self._activity
        arena = self._arena
        coff = self._coff
        csize = self._csize
        heap = self._heap
        heap_in = heap._in_heap
        heap_version = heap._version
        heap_entries = heap._entries
        current_level = len(self._trail_lim)
        counter = 0
        literal = 0
        # ``skip`` is the trail literal being resolved on; 0 matches nothing,
        # so the whole conflict clause participates in the first round.
        skip: Literal = 0
        reason_cid = conflict
        trail_index = len(trail) - 1

        while True:
            offset = coff[reason_cid]
            for position in range(offset, offset + csize[reason_cid]):
                reason_literal = arena[position]
                if reason_literal == skip:
                    continue
                var = reason_literal if reason_literal > 0 else -reason_literal
                if seen[var] or levels[var] == 0:
                    continue
                seen[var] = 1
                to_clear.append(var)
                # Inlined activity bump + lazy-heap update (hot: every marked
                # variable; the inlined update reuses the bumped value
                # instead of re-reading the activity array).
                new_activity = activity[var] + self._activity_inc
                activity[var] = new_activity
                if new_activity > 1e100:
                    # Rescale rebuilds the heap with a fresh entry list, so
                    # the locals must be re-fetched.
                    self._rescale_activity()
                    new_activity = activity[var]
                    heap_entries = heap._entries
                if heap_in[var]:
                    entry_version = heap_version[var] + 1
                    heap_version[var] = entry_version
                    heappush(heap_entries,
                             (-new_activity, var, entry_version))
                if levels[var] == current_level:
                    counter += 1
                else:
                    learned.append(reason_literal)
            # Find the next literal on the trail to resolve on.
            while True:
                literal = trail[trail_index]
                trail_index -= 1
                if seen[literal if literal > 0 else -literal]:
                    break
            counter -= 1
            if counter == 0:
                break
            reason_cid = reasons[literal if literal > 0 else -literal]
            assert reason_cid >= 0
            skip = literal

        # Learned-clause minimisation: drop any literal whose reason clause
        # consists only of literals already in the learned clause (or set at
        # level 0) -- resolving on it cannot add information.
        minimised: List[Literal] = []
        for candidate in learned:
            reason_cid = reasons[abs(candidate)]
            if reason_cid < 0:
                minimised.append(candidate)
                continue
            offset = coff[reason_cid]
            redundant = True
            for position in range(offset, offset + csize[reason_cid]):
                other = arena[position]
                if other == -candidate:
                    continue
                if not (seen[abs(other)] or levels[abs(other)] == 0):
                    redundant = False
                    break
            if redundant:
                self._stats["minimised"] += 1
            else:
                minimised.append(candidate)
        learned = minimised
        learned.insert(0, -literal)
        for var in to_clear:
            seen[var] = 0

        if len(learned) == 1:
            backjump_level = 0
        else:
            backjump_level = max(levels[abs(lit)] for lit in learned[1:])
        return learned, backjump_level

    def _analyse_final(self, failed: Literal) -> List[Literal]:
        """Why is the assumption ``failed`` false right now?

        Walks the implication graph backwards from ``-failed`` and collects
        the assumption decisions involved.  Returns a subset of the current
        assumptions that is inconsistent with the formula (always including
        ``failed`` itself).  Only called while every decision on the trail
        is an assumption.
        """
        core = [failed]
        if not self._trail_lim:
            return core
        arena = self._arena
        coff = self._coff
        csize = self._csize
        levels = self._level
        seen = {abs(failed)}
        for index in range(len(self._trail) - 1, self._trail_lim[0] - 1, -1):
            literal = self._trail[index]
            var = abs(literal)
            if var not in seen:
                continue
            reason_cid = self._reason[var]
            if reason_cid < 0:
                # A decision below the first search level is an assumption.
                core.append(literal)
            else:
                offset = coff[reason_cid]
                for position in range(offset, offset + csize[reason_cid]):
                    other = arena[position]
                    if levels[abs(other)] > 0:
                        seen.add(abs(other))
            seen.discard(var)
        return core

    # -- activities ----------------------------------------------------------------
    def _rescale_activity(self) -> None:
        """Scale every activity down after an overflow past 1e100.

        The order is preserved, but the keys of every live lazy-heap entry
        become inconsistent with post-rescale pushes, so the heap is
        rebuilt in one pass (rescales are rare)."""
        for index in range(1, self._num_vars + 1):
            self._activity[index] *= 1e-100
        self._activity_inc *= 1e-100
        self._heap.rebuild()

    def _decay_activity(self) -> None:
        self._activity_inc /= self._activity_decay

    # -- decisions -----------------------------------------------------------------
    def _pick_branch_variable(self) -> Optional[int]:
        # Inlined lazy-heap pop: stale entries (superseded versions) and
        # already-assigned variables are skipped in one loop without the
        # per-entry method dispatch of heap.pop().
        heap = self._heap
        entries = heap._entries
        version = heap._version
        in_heap = heap._in_heap
        lit_val = self._lit_val
        center = self._center
        size = heap._size
        while size:
            _, var, entry_version = heappop(entries)
            if in_heap[var] and version[var] == entry_version:
                in_heap[var] = False
                size -= 1
                if lit_val[center + var] == _UNASSIGNED:
                    heap._size = size
                    return var
        heap._size = size
        return None

    # -- tracing -------------------------------------------------------------------
    @property
    def trace(self):
        """The attached :class:`~repro.core.trace.TraceWriter` (or ``None``)."""
        return self._trace

    def _emit_trace_phase(self, trace) -> None:
        """Emit a sampled ``solver_phase`` record and re-arm the sampler."""
        stats = self._stats
        snapshot = self._trace_phase_snapshot
        keys = ("decisions", "propagations", "conflicts", "learned",
                "restarts")
        trace.emit(
            "solver_phase",
            conflicts=stats["conflicts"],
            delta={key: stats[key] - snapshot.get(key, 0) for key in keys},
            trail=len(self._trail))
        self._trace_phase_snapshot = {key: stats[key] for key in keys}
        self._trace_phase_mark = stats["conflicts"] + trace.phase_interval

    def _emit_trace_solve_end(self, trace, before: Dict[str, int],
                              sat: bool) -> None:
        """Emit ``solve_end`` with this solve's stat-counter deltas."""
        stats = self._stats
        trace.emit("solve_end", sat=sat,
                   delta={key: stats[key] - before[key] for key in stats})

    # -- restarts ------------------------------------------------------------------
    @staticmethod
    def _luby(index: int) -> int:
        """The Luby restart sequence 1,1,2,1,1,2,4,... (1-indexed)."""
        if index < 1:
            return 1
        while True:
            k = index.bit_length()
            if index == (1 << k) - 1:
                return 1 << (k - 1)
            index = index - (1 << (k - 1)) + 1

    # -- main loop -----------------------------------------------------------------
    def solve(self, assumptions: Iterable[Literal] = ()) -> SatResult:
        """Decide satisfiability under the given unit assumptions.

        The solver state survives the call: further clauses can be added and
        further queries (with different assumptions) issued afterwards.

        Consecutive queries reuse the **assumption-prefix trail**: the
        solver only backtracks to the longest common prefix of the previous
        and the current assumption list, so everything propagated under the
        shared assumptions stays in place.  The incremental deadlock
        queries -- same edge universe, one selector toggled per query --
        share almost their whole prefix, which makes this the single
        biggest saving on portfolio workloads.  (Adding a clause still
        backtracks to level 0, so prefix reuse never survives a formula
        change.)
        """
        trace = self._trace
        stats_before = dict(self._stats) if trace is not None else {}
        if self._interrupt is not None:
            # An already-expired budget fails fast, before the span opens.
            self._check_interrupt(None, stats_before)
        self._stats["solves"] += 1
        self._last_core = None
        assumption_list = list(assumptions)
        for literal in assumption_list:
            if literal == 0:
                raise ValueError("0 is not a valid literal")
            var = literal if literal > 0 else -literal
            if var > self._num_vars:
                self.ensure_vars(var)

        if not self._ok:
            # Trivially UNSAT: the formula already failed at level 0.  The
            # span is still emitted, so stream consumers need no special
            # case.
            if trace is not None:
                trace.emit("solve_begin", solve=self._stats["solves"],
                           assumptions=len(assumption_list), prefix_reuse=0)
                self._emit_trace_solve_end(trace, stats_before, False)
            return SatResult(satisfiable=False, stats=self.stats)
        # Longest common prefix with the previous query's assumptions,
        # capped by the decision levels actually still on the trail.
        previous = self._last_assumptions
        prefix = 0
        limit = min(len(previous), len(assumption_list),
                    len(self._trail_lim))
        while prefix < limit and previous[prefix] == assumption_list[prefix]:
            prefix += 1
        self._last_assumptions = assumption_list
        self._cancel_until(prefix)
        if trace is not None:
            trace.emit("solve_begin", solve=self._stats["solves"],
                       assumptions=len(assumption_list), prefix_reuse=prefix)
            if self._trace_phase_mark <= self._stats["conflicts"]:
                self._trace_phase_mark = (self._stats["conflicts"]
                                          + trace.phase_interval)

        restart_index = 1
        conflicts_since_restart = 0
        restart_limit = 32 * self._luby(restart_index)

        while True:
            conflict = self._propagate()
            if conflict >= 0:
                self._stats["conflicts"] += 1
                conflicts_since_restart += 1
                if (self._interrupt is not None
                        and self._stats["conflicts"]
                        >= self._interrupt_mark):
                    self._interrupt_mark = (self._stats["conflicts"]
                                            + INTERRUPT_CHECK_INTERVAL)
                    self._check_interrupt(trace, stats_before)
                if (trace is not None
                        and self._stats["conflicts"] >= self._trace_phase_mark):
                    self._emit_trace_phase(trace)
                if not self._trail_lim:
                    self._ok = False
                    if trace is not None:
                        self._emit_trace_solve_end(trace, stats_before, False)
                    return SatResult(satisfiable=False, stats=self.stats)
                learned, backjump_level = self._analyse(conflict)
                self._cancel_until(backjump_level)
                if len(learned) == 1:
                    self._enqueue(learned[0], -1)
                else:
                    # Watch the asserting literal and a literal from the
                    # backjump level so the watch invariant survives future
                    # backtracking.
                    levels = self._level
                    for position in range(2, len(learned)):
                        if (levels[abs(learned[position])]
                                >= levels[abs(learned[1])]):
                            learned[1], learned[position] = (
                                learned[position], learned[1])
                    cid = self._new_clause(learned)
                    self._stats["learned"] += 1
                    self._enqueue(learned[0], cid)
                self._decay_activity()
                continue

            if conflicts_since_restart >= restart_limit:
                self._stats["restarts"] += 1
                if trace is not None:
                    trace.emit("restart", conflicts=self._stats["conflicts"],
                               interval=conflicts_since_restart,
                               limit=restart_limit)
                restart_index += 1
                conflicts_since_restart = 0
                restart_limit = 32 * self._luby(restart_index)
                self._cancel_until(0)
                continue

            num_assumptions = len(assumption_list)
            if len(self._trail_lim) < num_assumptions:
                # Place pending assumptions, each as a decision on its own
                # level.  Assumptions already true get their (empty) level
                # without a propagation round-trip -- the batch stops at
                # the first one that actually enqueues.
                trail_lim = self._trail_lim
                while len(trail_lim) < num_assumptions:
                    literal = assumption_list[len(trail_lim)]
                    value = self._value(literal)
                    if value is False:
                        core = self._analyse_final(literal)
                        self._last_core = core
                        if trace is not None:
                            self._emit_trace_solve_end(
                                trace, stats_before, False)
                        # No backtrack: the placed assumption levels stay
                        # on the trail for the next query's prefix reuse.
                        return SatResult(satisfiable=False, stats=self.stats,
                                         core=core)
                    trail_lim.append(len(self._trail))
                    if value is None:
                        self._enqueue(literal, -1)
                        break
                continue

            variable = self._pick_branch_variable()
            if variable is None:
                lit_val = self._lit_val
                center = self._center
                model = {var: lit_val[center + var] == _TRUE
                         for var in range(1, self._num_vars + 1)}
                if trace is not None:
                    self._emit_trace_solve_end(trace, stats_before, True)
                # No backtrack (see the docstring): the next solve or
                # clause addition cancels exactly as far as it must.
                return SatResult(satisfiable=True, model=model,
                                 stats=self.stats)
            self._stats["decisions"] += 1
            if (self._interrupt is not None
                    and self._stats["decisions"] % 1024 == 0):
                # Conflict-free searches (pure propagation walks) must
                # honour the budget too, just on a coarser cadence.
                self._check_interrupt(trace, stats_before)
            trail_lim = self._trail_lim
            trail_lim.append(len(self._trail))
            # Inlined _enqueue for the decision (reason-free) case, with
            # the saved phase as polarity.
            literal = variable if self._polarity[variable] else -variable
            lit_val = self._lit_val
            center = self._center
            lit_val[center + literal] = _TRUE
            lit_val[center - literal] = _FALSE
            self._level[variable] = len(trail_lim)
            self._reason[variable] = -1
            self._trail.append(literal)

    def last_core(self) -> Optional[List[Literal]]:
        """The assumption core of the most recent UNSAT-under-assumptions
        answer (``None`` otherwise)."""
        return self._last_core

    # -- introspection (tests, debugging) -------------------------------------------
    def clause_literals(self, cid: int) -> List[Literal]:
        """The literals of clause ``cid`` as stored in the arena."""
        offset = self._coff[cid]
        return self._arena[offset:offset + self._csize[cid]]

    def check_watch_invariants(self) -> List[str]:
        """Audit the watcher structures; returns violations (empty = OK).

        Checked by the clause-management test suite after randomized
        incremental batches: every clause with >= 2 literals must be
        watched on exactly its first two arena slots, every watcher entry
        must reference an existing clause, and every blocker must be a
        literal of its clause.
        """
        errors: List[str] = []
        count = len(self._coff)
        watched: Dict[int, List[int]] = {cid: [] for cid in range(count)}
        center = self._center
        for slot, watch_list in enumerate(self._watches):
            if len(watch_list) % 2:
                errors.append(f"watch list at slot {slot} has odd length")
                continue
            literal = slot - center
            for read in range(0, len(watch_list), 2):
                cid = watch_list[read]
                blocker = watch_list[read + 1]
                if not 0 <= cid < count:
                    errors.append(f"watcher references dead clause {cid}")
                    continue
                watched[cid].append(literal)
                literals = self.clause_literals(cid)
                if blocker not in literals:
                    errors.append(f"blocker {blocker} of clause {cid} is "
                                  f"not one of its literals {literals}")
        for cid in range(count):
            literals = self.clause_literals(cid)
            if len(literals) < 2:
                continue
            if sorted(watched[cid]) != sorted(literals[:2]):
                errors.append(
                    f"clause {cid} watches {sorted(watched[cid])} but its "
                    f"watched pair is {sorted(literals[:2])}")
        return errors


class SatSolver:
    """A CDCL solver over a :class:`CNF`, incrementally re-solvable.

    The solver keeps a live reference to the CNF: clauses added to the CNF
    after construction are picked up by the next :meth:`solve` call, and a
    single :class:`SatSolver` can be queried many times under different
    assumptions -- learned clauses are shared between the queries.
    """

    def __init__(self, cnf: CNF, trace=None) -> None:
        self._cnf = cnf
        self._engine = IncrementalSatSolver(trace=trace)
        self._loaded_clauses = 0
        self._sync()

    @property
    def engine(self) -> IncrementalSatSolver:
        return self._engine

    def _sync(self) -> None:
        """Stream CNF clauses added since the last solve into the arena."""
        self._engine.ensure_vars(self._cnf.num_vars)
        loaded = self._loaded_clauses
        self._loaded_clauses = self._cnf.num_clauses
        self._engine.add_clauses(self._cnf.iter_clauses(start=loaded))

    def add_clause(self, literals: Iterable[Literal]) -> None:
        """Add a clause to both the CNF and the live solver."""
        self._cnf.add_clause(literals)
        self._sync()

    def solve(self, assumptions: Iterable[Literal] = ()) -> SatResult:
        """Decide satisfiability (optionally under unit assumptions).

        Models are *not* re-evaluated against the CNF here (that O(formula)
        pass per solve was measurable on one-shot queries); the property
        suite cross-checks models against :meth:`CNF.evaluate` instead.
        """
        self._sync()
        return self._engine.solve(assumptions)

    def last_core(self) -> Optional[List[Literal]]:
        return self._engine.last_core()


def solve_cnf(cnf: CNF, assumptions: Iterable[Literal] = ()) -> SatResult:
    """Convenience wrapper: solve a CNF with a fresh solver instance."""
    return SatSolver(cnf).solve(assumptions)


def brute_force_satisfiable(cnf: CNF) -> bool:
    """Exponential reference implementation used to validate the solver."""
    variables = sorted(cnf.variables())
    if not variables:
        return not cnf.has_empty_clause()
    for bits in itertools.product([False, True], repeat=len(variables)):
        assignment = dict(zip(variables, bits))
        if cnf.evaluate(assignment):
            return True
    return False


def brute_force_models(cnf: CNF) -> Iterator[Dict[int, bool]]:
    """Enumerate *all* models of a CNF (over the variables it mentions).

    Exponential; only meant for cross-checking the CDCL solver on small
    formulas in the property-test suite.
    """
    variables = sorted(cnf.variables())
    if not variables:
        if not cnf.has_empty_clause():
            yield {}
        return
    for bits in itertools.product([False, True], repeat=len(variables)):
        assignment = dict(zip(variables, bits))
        if cnf.evaluate(assignment):
            yield assignment


def count_models_brute_force(cnf: CNF) -> int:
    """Number of models over the variables the CNF mentions (exponential)."""
    return sum(1 for _ in brute_force_models(cnf))
