"""The trace lab: recording, validation, determinism, analysis, CLI.

The contracts pinned here are the ones ISSUE 7 names: a ``None`` trace
changes nothing (verdicts byte-identical on the pinned acceptance matrix),
a real trace is deterministic modulo timing fields, the stream validates
against the schema, and ``repro trace summary`` reconciles the event-stream
deltas with the solver's own end-of-run aggregate counters.
"""

import io
import itertools
import json
import time

import pytest

from repro.checking.sat import IncrementalSatSolver
from repro.core.cache import reset_instance_cache
from repro.core.portfolio import run_portfolio, scenarios_from_specs
from repro.core.spec import expand_matrix
from repro.core.trace import (
    TRACE_SCHEMA,
    TraceWriter,
    load_trace,
    scrub_timing,
    validate_trace,
)
from repro.core import trace_analysis

#: The pinned 24-scenario acceptance matrix (same as the engine-acceptance
#: fixture in test_clause_management.py).
ACCEPTANCE_MATRIX = (
    "mesh:3x3, routing=[xy,yx,west-first,north-last,negative-first,"
    "adaptive,zigzag], switching=wormhole; "
    "mesh:3x3, routing=xy, switching=vct; "
    "mesh:4x4, routing=[xy,yx], switching=wormhole; "
    "ring:4, routing=chain; ring:4, routing=clockwise, buffers=1; "
    "vc-mesh:3x3, vcs=1..4; vc-torus:4x4, vcs=1..4; vc-ring:4, vcs=1..4"
)

#: A small conflict-heavy matrix for the determinism / reconciliation
#: tests (adaptive + zigzag are deadlock-prone -> real search work).
SMALL_MATRIX = ("mesh:3x3, routing=[xy,adaptive,zigzag]; "
                "ring:4, routing=clockwise, buffers=1")


def _counter_clock():
    counter = itertools.count()
    return lambda: float(next(counter))


def _traced_portfolio(matrix, label="test", **kwargs):
    """Run ``matrix`` serially with an in-memory deterministic trace."""
    sink = io.StringIO()
    trace = TraceWriter(sink, clock=_counter_clock(), label=label)
    report = run_portfolio(scenarios_from_specs(expand_matrix(matrix)),
                           trace=trace, **kwargs)
    trace.close()
    return report, load_trace(sink.getvalue().splitlines())


# ---------------------------------------------------------------------------
# TraceWriter / validate_trace units
# ---------------------------------------------------------------------------

class TestTraceWriter:

    def test_header_and_monotonic_eids(self):
        sink = io.StringIO()
        with TraceWriter(sink, clock=_counter_clock(), label="unit") as tr:
            assert tr.last_eid == 0  # the trace_begin header
            assert tr.emit("restart", conflicts=1, interval=1, limit=32) == 1
            assert tr.emit("restart", conflicts=2, interval=1, limit=32) == 2
        events = load_trace(sink.getvalue().splitlines())
        assert [event["eid"] for event in events] == [0, 1, 2]
        assert events[0]["ev"] == "trace_begin"
        assert events[0]["schema"] == TRACE_SCHEMA
        assert events[0]["label"] == "unit"

    def test_path_sink_owned_and_closed(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with TraceWriter(path, clock=_counter_clock()) as tr:
            tr.emit("restart", conflicts=5, interval=5, limit=32)
        events = load_trace(path)
        assert len(events) == 2
        assert events[1]["conflicts"] == 5

    def test_emit_after_close_raises(self):
        tr = TraceWriter(io.StringIO(), clock=_counter_clock())
        tr.close()
        with pytest.raises(ValueError):
            tr.emit("restart", conflicts=0, interval=0, limit=32)

    def test_buffering_flushes_on_limit(self):
        sink = io.StringIO()
        tr = TraceWriter(sink, clock=_counter_clock(), buffer_limit=4)
        assert sink.getvalue() == ""  # header still buffered
        for _ in range(4):
            tr.emit("restart", conflicts=0, interval=0, limit=32)
        assert len(sink.getvalue().splitlines()) >= 4
        tr.close()
        assert len(load_trace(sink.getvalue().splitlines())) == 5

    def test_timestamps_come_from_injected_clock(self):
        sink = io.StringIO()
        tr = TraceWriter(sink, clock=_counter_clock())
        tr.emit("restart", conflicts=0, interval=0, limit=32)
        tr.close()
        events = load_trace(sink.getvalue().splitlines())
        # epoch read at construction, header at 1.0, event at 2.0
        assert [event["t"] for event in events] == [1.0, 2.0]


class TestValidateTrace:

    def _valid(self):
        return [
            {"eid": 0, "ev": "trace_begin", "t": 0.0,
             "schema": TRACE_SCHEMA, "label": ""},
            {"eid": 1, "ev": "solve_begin", "t": 0.1, "solve": 1,
             "assumptions": 0, "prefix_reuse": 0},
            {"eid": 2, "ev": "solve_end", "t": 0.2, "sat": True,
             "delta": {}},
        ]

    def test_valid_stream(self):
        assert validate_trace(self._valid()) == []

    def test_eid_gap_detected(self):
        events = self._valid()
        events[2]["eid"] = 5
        assert any("expected eid 2" in error
                   for error in validate_trace(events))

    def test_unknown_event_type(self):
        events = self._valid() + [{"eid": 3, "ev": "mystery", "t": 0.3}]
        assert any("unknown event type" in error
                   for error in validate_trace(events))

    def test_missing_required_field(self):
        events = self._valid()
        del events[1]["prefix_reuse"]
        assert any("missing fields" in error
                   for error in validate_trace(events))

    def test_missing_header(self):
        assert any("trace_begin" in error
                   for error in validate_trace(self._valid()[1:]))

    def test_wrong_schema(self):
        events = self._valid()
        events[0]["schema"] = TRACE_SCHEMA + 1
        assert any("schema" in error for error in validate_trace(events))

    def test_unbalanced_solve_span(self):
        events = self._valid()[:2]
        assert any("unclosed solve" in error
                   for error in validate_trace(events))

    def test_scrub_timing_strips_nondeterministic_fields(self):
        event = {"eid": 1, "ev": "scenario_end", "t": 0.5,
                 "wall_time_s": 0.2, "cache": {"hits": 1}, "edges": 3}
        scrubbed = scrub_timing(event)
        assert scrubbed == {"eid": 1, "ev": "scenario_end", "edges": 3}


# ---------------------------------------------------------------------------
# Solver-level stream
# ---------------------------------------------------------------------------

class TestSolverTrace:

    def test_trivially_unsat_stats_keys_match_main_path(self):
        # The early-return path must report the exact key set of the
        # main search path.
        normal = IncrementalSatSolver()
        normal.add_clauses([[1, 2], [-1, 2], [1, -2], [-1, -2]])
        normal_result = normal.solve()
        trivial = IncrementalSatSolver()
        trivial.add_clauses([[1], [-1]])
        trivial_result = trivial.solve()
        assert not trivial_result.satisfiable
        assert set(trivial_result.stats) == set(normal_result.stats)

    def test_solve_spans_and_deltas(self):
        sink = io.StringIO()
        trace = TraceWriter(sink, clock=_counter_clock())
        solver = IncrementalSatSolver(trace=trace)
        solver.add_clauses([[1, 2], [-1, 2]])
        assert solver.solve([-2]).satisfiable is False
        assert solver.solve([2]).satisfiable is True
        trace.close()
        events = load_trace(sink.getvalue().splitlines())
        assert validate_trace(events) == []
        begins = [event for event in events if event["ev"] == "solve_begin"]
        ends = [event for event in events if event["ev"] == "solve_end"]
        assert len(begins) == 2 and len(ends) == 2
        assert [end["sat"] for end in ends] == [False, True]
        # Every solve_end delta accounts for exactly one solve.
        assert all(end["delta"]["solves"] == 1 for end in ends)

    def test_trivially_unsat_emits_balanced_span(self):
        sink = io.StringIO()
        trace = TraceWriter(sink, clock=_counter_clock())
        solver = IncrementalSatSolver(trace=trace)
        solver.add_clauses([[1], [-1]])
        result = solver.solve()
        trace.close()
        assert not result.satisfiable
        events = load_trace(sink.getvalue().splitlines())
        assert validate_trace(events) == []
        ends = [event for event in events if event["ev"] == "solve_end"]
        assert len(ends) == 1 and ends[0]["sat"] is False

    def test_untraced_solver_holds_no_trace_state(self):
        solver = IncrementalSatSolver()
        assert solver.trace is None


# ---------------------------------------------------------------------------
# Determinism and byte-identity (the tentpole contracts)
# ---------------------------------------------------------------------------

class TestTraceDeterminism:

    def test_identical_streams_modulo_timing(self):
        _, first = _traced_portfolio(SMALL_MATRIX, label="det",
                                     cross_check=True)
        _, second = _traced_portfolio(SMALL_MATRIX, label="det",
                                      cross_check=True)
        assert ([scrub_timing(event) for event in first]
                == [scrub_timing(event) for event in second])

    def test_cache_counters_agree_on_cold_cache(self):
        # On a cold construction cache even the cache counters (the
        # ENVIRONMENT_FIELDS scrub_timing strips) agree -- only the
        # wall-clock TIMING_FIELDS remain legitimately different.
        def strip_wall(event):
            return {key: value for key, value in event.items()
                    if key not in ("t", "wall_time_s")}

        reset_instance_cache()
        _, first = _traced_portfolio(SMALL_MATRIX, label="det",
                                     cross_check=True)
        reset_instance_cache()
        _, second = _traced_portfolio(SMALL_MATRIX, label="det",
                                      cross_check=True)
        assert ([strip_wall(event) for event in first]
                == [strip_wall(event) for event in second])

    def test_stream_validates(self):
        for cross_check in (False, True):
            _, events = _traced_portfolio(SMALL_MATRIX,
                                          cross_check=cross_check)
            assert validate_trace(events) == []

    def test_traced_vs_untraced_verdicts_byte_identical(self):
        # The acceptance-criterion pin, on the pinned 24-scenario matrix.
        scenarios = scenarios_from_specs(expand_matrix(ACCEPTANCE_MATRIX))
        untraced = run_portfolio(scenarios, cross_check=True)
        traced, events = _traced_portfolio(ACCEPTANCE_MATRIX,
                                           cross_check=True)
        assert len(traced.verdicts) == 24
        assert (json.dumps(traced.comparable_dict(), sort_keys=True)
                == json.dumps(untraced.comparable_dict(), sort_keys=True))
        assert validate_trace(events) == []

    def test_trace_with_parallel_jobs_rejected(self):
        scenarios = scenarios_from_specs(expand_matrix(SMALL_MATRIX))
        with pytest.raises(ValueError, match="serial"):
            run_portfolio(scenarios, jobs=4,
                          trace=TraceWriter(io.StringIO(),
                                            clock=_counter_clock()))

    def test_no_trace_overhead_bound(self):
        # The None path must not pay for tracing: an untraced run of a
        # solver-heavy workload may not be slower than the traced run of
        # the same workload (which does strictly more work) beyond noise.
        def run_once(trace):
            reset_instance_cache()
            scenarios = scenarios_from_specs(expand_matrix(SMALL_MATRIX))
            started = time.perf_counter()
            run_portfolio(scenarios, cross_check=True, trace=trace)
            return time.perf_counter() - started

        untraced = min(run_once(None) for _ in range(3))
        traced = min(
            run_once(TraceWriter(io.StringIO(), clock=_counter_clock()))
            for _ in range(3))
        assert untraced <= traced * 2.0, (
            f"untraced run ({untraced:.3f}s) should not cost more than "
            f"2x the traced run ({traced:.3f}s)")


# ---------------------------------------------------------------------------
# Solver-technique events (restart)
# ---------------------------------------------------------------------------

class TestSolverTechniqueEvents:
    """The technique events must validate against the schema and
    reconcile with the solver's aggregate counters."""

    def test_direct_solver_event_stream_matches_stats(self):
        # A deterministic incremental workload deep enough to restart:
        # the per-event counts must match the solver's own aggregate
        # counters.
        import random

        rng = random.Random(2)
        sink = io.StringIO()
        trace = TraceWriter(sink, clock=_counter_clock(), label="direct")
        solver = IncrementalSatSolver(trace=trace)
        num_vars = 60
        for _ in range(num_vars):
            solver.new_var()

        def add_random_batch(count):
            for _ in range(count):
                chosen = rng.sample(range(1, num_vars + 1), 3)
                solver.add_clause([var if rng.random() < 0.5 else -var
                                   for var in chosen])

        add_random_batch(int(num_vars * 4.26))  # phase-transition density
        solver.solve()
        add_random_batch(80)  # an incremental second batch
        solver.solve()
        trace.close()
        events = load_trace(sink.getvalue().splitlines())
        assert validate_trace(events) == []

        restarts = [event for event in events if event["ev"] == "restart"]
        assert restarts
        assert solver.stats["restarts"] == len(restarts)


# ---------------------------------------------------------------------------
# Offline analysis
# ---------------------------------------------------------------------------

class TestTraceAnalysis:

    @pytest.fixture(scope="class")
    def run(self):
        return _traced_portfolio(SMALL_MATRIX, label="analysis",
                                 cross_check=True)

    def test_summary_reconciles_with_solver_stats(self, run):
        report, events = run
        summary = trace_analysis.analyze_summary(events)
        assert summary["reconciled"] is True
        assert all(group["reconciled"] for group in summary["groups"])
        # Event-stream deltas sum to the report's own aggregate counters.
        for group in summary["groups"]:
            assert group["stats"] == report.session_stats[group["group"]]
            assert group["scenario_delta_sum"] == group["stats"]
        totals = summary["totals"]
        for key in ("solves", "conflicts", "propagations", "decisions"):
            assert totals[key] == sum(
                stats[key] for stats in report.session_stats.values())

    def test_summary_detects_mismatch(self, run):
        _, events = run
        tampered = [dict(event) for event in events]
        for event in tampered:
            if event["ev"] == "session_summary":
                event["stats"] = dict(event["stats"])
                event["stats"]["conflicts"] += 1
                break
        summary = trace_analysis.analyze_summary(tampered)
        assert summary["reconciled"] is False
        assert any("conflicts" in group["mismatched_keys"]
                   for group in summary["groups"])

    def test_summary_scenario_shares_sum_to_one(self, run):
        _, events = run
        summary = trace_analysis.analyze_summary(events)
        shares = [scenario["share"] for scenario in summary["scenarios"]]
        assert shares == sorted(shares, reverse=True)
        assert abs(sum(shares) - 1.0) < 1e-9

    def test_restarts_cadence(self, run):
        _, events = run
        restarts = trace_analysis.analyze_restarts(events)
        expected = sum(1 for event in events if event["ev"] == "restart")
        assert restarts["restarts"] == expected
        for row in restarts["rows"]:
            assert row["interval"] >= row["limit"]

    def test_hot_ranks_by_work(self, run):
        _, events = run
        hot = trace_analysis.analyze_hot(events, top=2)
        assert len(hot["rows"]) == 2
        assert hot["total_scenarios"] == 4
        works = [row["work"] for row in hot["rows"]]
        assert works == sorted(works, reverse=True)

    def test_formatters_render(self, run):
        _, events = run
        assert "reconciliation: OK" in trace_analysis.format_summary(
            trace_analysis.analyze_summary(events))
        trace_analysis.format_restarts(
            trace_analysis.analyze_restarts(events))
        assert "scenarios by solver work" in trace_analysis.format_hot(
            trace_analysis.analyze_hot(events))

    def test_analyses_are_json_serialisable(self, run):
        _, events = run
        for analysis in (trace_analysis.analyze_summary(events),
                         trace_analysis.analyze_restarts(events),
                         trace_analysis.analyze_hot(events)):
            json.loads(json.dumps(analysis))


# ---------------------------------------------------------------------------
# CLI round-trips
# ---------------------------------------------------------------------------

class TestTraceCli:

    def test_batch_trace_then_summary_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "run.jsonl")
        assert main(["batch", "--matrix", SMALL_MATRIX,
                     "--trace", path]) == 0
        events = load_trace(path)
        assert validate_trace(events) == []
        capsys.readouterr()
        assert main(["trace", "summary", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reconciled"] is True
        assert payload["events"] == len(events)

    def test_batch_trace_requires_serial(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="jobs 1"):
            main(["batch", "--matrix", SMALL_MATRIX, "--jobs", "2",
                  "--trace", str(tmp_path / "x.jsonl")])

    def test_trace_rejects_invalid_file(self, tmp_path):
        from repro.cli import main

        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"eid": 0, "ev": "mystery", "t": 0.0}\n')
        with pytest.raises(SystemExit, match="schema"):
            main(["trace", "summary", str(bad)])

    @pytest.mark.parametrize("top", ["0", "-3"])
    def test_trace_hot_rejects_top_below_one(self, tmp_path, top):
        from repro.cli import main

        path = str(tmp_path / "run.jsonl")
        main(["batch", "--matrix", SMALL_MATRIX, "--trace", path])
        with pytest.raises(SystemExit, match="--top must be at least 1"):
            main(["trace", "hot", path, "--top", top])

    def test_trace_subcommands_render_tables(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "run.jsonl")
        main(["batch", "--matrix", SMALL_MATRIX, "--trace", path])
        capsys.readouterr()
        for args in (["trace", "restarts", path],
                     ["trace", "hot", path, "--top", "3"]):
            assert main(args) == 0
        assert capsys.readouterr().out
