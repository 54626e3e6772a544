"""Structured engine telemetry: the trace lab's recording side.

Besides end-of-run aggregates and wall times (``repro batch --json``),
this module records what a run *did* while it did it: an opt-in,
buffered JSONL event stream threaded through the portfolio driver, the
verdict store and the cross-check's deadlock query session, cheap enough
to leave wired in (a ``None`` trace costs one pointer test per event
site) and structured enough to analyse offline
(:mod:`repro.core.trace_analysis`, ``repro trace``).

Design rules:

* **Opt-in and inert by default.**  Every producer takes ``trace=None``;
  with ``None`` no event objects are allocated and verdicts are
  byte-identical to an untraced run (pinned by the acceptance tests).
* **Deterministic modulo timing.**  Event payloads are pure functions of
  the (deterministic) engine state; wall-clock readings are confined to
  the :data:`TIMING_FIELDS` (``t``, ``wall_time_s``).  The clock itself is
  injected, so tests replace it with a counter and assert two traced runs
  produce *identical* streams.
* **Schema-versioned, monotonic.**  Every stream starts with a
  ``trace_begin`` event carrying :data:`TRACE_SCHEMA`; every event has a
  monotonically increasing ``eid``.  :func:`validate_trace` is the gate
  the CI trace-smoke lane fails on.

Event taxonomy (``ev`` field):

=================  ==========================================================
``trace_begin``    stream header: ``schema``, free-form ``label``
``oracle_query``   one cross-check peel: ``query`` index, ``edges``
                   queried, ``free`` (nothing was left)
``scenario_begin`` portfolio span open: ``scenario``, ``group``, ``index``,
                   ``shard``
``scenario_end``   portfolio span close: verdict, ``edges``/``new_edges``,
                   per-scenario ``solver`` deltas (``solves``: peels),
                   ``cache`` build counts, ``wall_time_s``
``session_summary`` end-of-group aggregate solver ``stats`` (the
                   reconciliation anchor: per-scenario deltas must sum to
                   these counters)
``portfolio_begin``/``portfolio_end``  run-level span: scenario counts,
                   ``shard``, verdict summary
``group_timeout``  a scenario group hit its deadline: ``group``, ``reason``
                   (its unfinished scenarios became ``timeout`` verdicts)
``group_error``    a scenario group failed for good: ``group``, ``reason``
``store_lookup``   verdict-store probe for one group: ``group``, the content
                   ``key``, ``hit``
``store_write``    verdict-store persist attempt: ``group``, ``written``
                   (``false``: skipped -- read-only/degraded store or a
                   writer-lock timeout)
=================  ==========================================================

A store-replayed group still opens its ``scenario_begin``/``scenario_end``
spans and closes with ``session_summary`` -- the solver deltas and stats
come from the stored record and the events carry ``cached: true`` -- so
the per-group reconciliation contract holds on warm-cache runs too.

A ``scenario_end`` closing a cut-off scenario carries the optional
``status`` field (``"timeout"``/``"error"``) with ``deadlock_free: null``
and its *partial* solver delta -- so the per-group reconciliation of
:func:`repro.core.trace_analysis.analyze_summary` keeps holding on
truncated runs.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, Iterable, Iterator, List, Optional

#: Version of the event-stream shape.  Bump when events are renamed,
#: removed, or their required fields change; additive optional fields do
#: not need a bump.
TRACE_SCHEMA = 4

#: Fields that legitimately differ between two runs of the same workload
#: (wall-clock readings).  Everything else must be deterministic --
#: :func:`scrub_timing` strips these for the determinism tests.
TIMING_FIELDS = frozenset({"t", "wall_time_s"})

#: Fields that describe how a run was executed rather than the workload:
#: the build counters of a ``scenario_end`` (a scenario replayed from the
#: verdict store built nothing).  The same legitimate-difference class as
#: :data:`TIMING_FIELDS` (and stripped with them), matching what
#: :meth:`~repro.core.portfolio.PortfolioReport.comparable_dict` strips
#: from verdict reports.
ENVIRONMENT_FIELDS = frozenset({"cache"})

#: Known event types and the fields each is required to carry (beyond the
#: envelope ``eid``/``ev``/``t``).  Used by :func:`validate_trace`.
EVENT_FIELDS: Dict[str, tuple] = {
    "trace_begin": ("schema",),
    "oracle_query": ("query", "edges", "free"),
    "scenario_begin": ("scenario", "group", "index", "shard"),
    "scenario_end": ("scenario", "group", "deadlock_free", "condition",
                     "edges", "new_edges", "solver", "cache", "wall_time_s"),
    "session_summary": ("group", "stats"),
    "portfolio_begin": ("scenarios", "shard"),
    "portfolio_end": ("scenarios", "deadlock_free", "deadlock_prone"),
    "group_timeout": ("group", "reason"),
    "group_error": ("group", "reason"),
    "store_lookup": ("group", "key", "hit"),
    "store_write": ("group", "written"),
}

class TraceWriter:
    """Buffered JSONL trace sink with monotonic event ids.

    ``sink`` is a filesystem path (opened, owned and closed by the writer)
    or any object with a ``write(str)`` method (borrowed; only flushed).
    ``clock`` is the wall-clock source for the ``t`` envelope field --
    inject a deterministic counter to make whole streams reproducible::

        with TraceWriter("run.jsonl") as trace:
            run_portfolio(scenarios, trace=trace)

    Events are buffered (``buffer_limit`` events) and flushed on overflow,
    :meth:`flush` and :meth:`close`; the writer emits the schema-versioned
    ``trace_begin`` header on construction.
    """

    def __init__(self, sink, clock: Optional[Callable[[], float]] = None,
                 label: str = "",
                 buffer_limit: int = 512) -> None:
        if isinstance(sink, str):
            self._handle = open(sink, "w", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = sink
            self._owns_handle = False
        self._clock = clock if clock is not None else time.perf_counter
        self._epoch = self._clock()
        self._buffer: List[str] = []
        self._buffer_limit = max(1, int(buffer_limit))
        self._eid = -1
        self._closed = False
        self.emit("trace_begin", schema=TRACE_SCHEMA, label=label)

    # -- recording ----------------------------------------------------------------
    @property
    def last_eid(self) -> int:
        """The id of the most recently emitted event."""
        return self._eid

    def emit(self, ev: str, **fields) -> int:
        """Record one event; returns its monotonic id."""
        if self._closed:
            raise ValueError("trace writer is closed")
        self._eid += 1
        record: Dict[str, object] = {
            "eid": self._eid,
            "ev": ev,
            "t": round(self._clock() - self._epoch, 6),
        }
        record.update(fields)
        self._buffer.append(json.dumps(record, separators=(",", ":")))
        if len(self._buffer) >= self._buffer_limit:
            self._write_out()
        return self._eid

    def _write_out(self) -> None:
        if self._buffer:
            self._handle.write("\n".join(self._buffer) + "\n")
            self._buffer.clear()

    def flush(self) -> None:
        """Flush buffered events through to the underlying sink."""
        self._write_out()
        self._handle.flush()

    def close(self) -> None:
        """Flush and (for path sinks) close the underlying handle."""
        if self._closed:
            return
        self._write_out()
        if self._owns_handle:
            self._handle.close()
        else:
            self._handle.flush()
        self._closed = True

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Reading, scrubbing, validating
# ---------------------------------------------------------------------------

def iter_trace(source) -> Iterator[Dict[str, object]]:
    """Yield the events of a JSONL trace (path or iterable of lines)."""
    if isinstance(source, str):
        with open(source, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    yield json.loads(line)
        return
    for line in source:
        line = line.strip()
        if line:
            yield json.loads(line)


def load_trace(source) -> List[Dict[str, object]]:
    """The whole event list of a trace (see :func:`iter_trace`)."""
    return list(iter_trace(source))


def scrub_timing(event: Dict[str, object]) -> Dict[str, object]:
    """A copy of ``event`` with the :data:`TIMING_FIELDS` (wall-clock
    readings) and :data:`ENVIRONMENT_FIELDS` (process-history-dependent
    cache counters) removed.

    Two traced runs of the same deterministic workload must produce
    identical event lists after scrubbing -- the determinism contract the
    trace tests pin.
    """
    return {key: value for key, value in event.items()
            if key not in TIMING_FIELDS and key not in ENVIRONMENT_FIELDS}


def validate_trace(events: Iterable[Dict[str, object]]) -> List[str]:
    """Validate an event stream; returns the violations (empty = valid).

    Checks the envelope (monotonic ``eid`` from 0, numeric ``t``, known
    ``ev``), the schema-versioned ``trace_begin`` header, the per-type
    required fields of :data:`EVENT_FIELDS` and span pairing
    (``scenario_begin``/``scenario_end`` and
    ``portfolio_begin``/``portfolio_end`` must balance).  This is the
    contract the CI trace-smoke lane enforces on shipped traces.
    """
    errors: List[str] = []
    expected_eid = 0
    open_scenarios = open_portfolios = 0
    saw_header = False
    for event in events:
        eid = event.get("eid")
        ev = event.get("ev")
        where = f"event eid={eid!r}"
        if eid != expected_eid:
            errors.append(f"{where}: expected eid {expected_eid}")
        expected_eid = (eid + 1 if isinstance(eid, int)
                        else expected_eid + 1)
        if not isinstance(event.get("t"), (int, float)):
            errors.append(f"{where}: missing numeric 't'")
        if ev not in EVENT_FIELDS:
            errors.append(f"{where}: unknown event type {ev!r}")
            continue
        missing = [field for field in EVENT_FIELDS[ev] if field not in event]
        if missing:
            errors.append(f"{where} ({ev}): missing fields {missing}")
        if eid == 0 or not saw_header:
            if ev != "trace_begin":
                errors.append(f"{where}: stream must start with trace_begin")
            elif event.get("schema") != TRACE_SCHEMA:
                errors.append(f"{where}: schema {event.get('schema')!r} != "
                              f"{TRACE_SCHEMA}")
            saw_header = True
            continue
        if ev == "trace_begin":
            errors.append(f"{where}: duplicate trace_begin")
        elif ev == "scenario_begin":
            open_scenarios += 1
        elif ev == "scenario_end":
            open_scenarios -= 1
            if open_scenarios < 0:
                errors.append(f"{where}: scenario_end without "
                              f"scenario_begin")
                open_scenarios = 0
        elif ev == "portfolio_begin":
            open_portfolios += 1
        elif ev == "portfolio_end":
            open_portfolios -= 1
            if open_portfolios < 0:
                errors.append(f"{where}: portfolio_end without "
                              f"portfolio_begin")
                open_portfolios = 0
    if not saw_header:
        errors.append("empty trace: no trace_begin header")
    if open_scenarios:
        errors.append(f"{open_scenarios} unclosed scenario span(s)")
    if open_portfolios:
        errors.append(f"{open_portfolios} unclosed portfolio span(s)")
    return errors
