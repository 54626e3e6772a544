"""The trace lab: recording, validation, determinism, analysis, CLI.

The contracts pinned here: a ``None`` trace changes nothing (verdicts
byte-identical on the pinned acceptance matrix), a real trace is
deterministic modulo timing fields, the stream validates against the
schema, and ``repro trace summary`` reconciles the event-stream deltas
with the session's own end-of-run peel counts.
"""

import io
import itertools
import json
import time

import pytest

from repro.core import trace_analysis
from repro.core.portfolio import run_portfolio, scenarios_from_specs
from repro.core.spec import expand_matrix
from repro.core.trace import (
    TRACE_SCHEMA,
    TraceWriter,
    load_trace,
    scrub_timing,
    validate_trace,
)

#: The pinned 24-scenario acceptance matrix (same as the engine-acceptance
#: fixture in test_portfolio.py).
ACCEPTANCE_MATRIX = (
    "mesh:3x3, routing=[xy,yx,west-first,north-last,negative-first,"
    "adaptive,zigzag], switching=wormhole; "
    "mesh:3x3, routing=xy, switching=vct; "
    "mesh:4x4, routing=[xy,yx], switching=wormhole; "
    "ring:4, routing=chain; ring:4, routing=clockwise, buffers=1; "
    "vc-mesh:3x3, vcs=1..4; vc-torus:4x4, vcs=1..4; vc-ring:4, vcs=1..4"
)

#: A small matrix for the determinism / reconciliation tests (adaptive +
#: zigzag are deadlock-prone -> cycle and escape peels).
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
            assert tr.emit("oracle_query", query=1, edges=1, free=True) == 1
            assert tr.emit("oracle_query", query=2, edges=1, free=True) == 2
        events = load_trace(sink.getvalue().splitlines())
        assert [event["eid"] for event in events] == [0, 1, 2]
        assert events[0]["ev"] == "trace_begin"
        assert events[0]["schema"] == TRACE_SCHEMA
        assert events[0]["label"] == "unit"

    def test_path_sink_owned_and_closed(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with TraceWriter(path, clock=_counter_clock()) as tr:
            tr.emit("oracle_query", query=5, edges=1, free=True)
        events = load_trace(path)
        assert len(events) == 2
        assert events[1]["query"] == 5

    def test_emit_after_close_raises(self):
        tr = TraceWriter(io.StringIO(), clock=_counter_clock())
        tr.close()
        with pytest.raises(ValueError):
            tr.emit("oracle_query", query=0, edges=1, free=True)

    def test_buffering_flushes_on_limit(self):
        sink = io.StringIO()
        tr = TraceWriter(sink, clock=_counter_clock(), buffer_limit=4)
        assert sink.getvalue() == ""  # header still buffered
        for _ in range(4):
            tr.emit("oracle_query", query=0, edges=1, free=True)
        assert len(sink.getvalue().splitlines()) >= 4
        tr.close()
        assert len(load_trace(sink.getvalue().splitlines())) == 5

    def test_timestamps_come_from_injected_clock(self):
        sink = io.StringIO()
        tr = TraceWriter(sink, clock=_counter_clock())
        tr.emit("oracle_query", query=0, edges=1, free=True)
        tr.close()
        events = load_trace(sink.getvalue().splitlines())
        # epoch read at construction, header at 1.0, event at 2.0
        assert [event["t"] for event in events] == [1.0, 2.0]


class TestValidateTrace:

    def _valid(self):
        return [
            {"eid": 0, "ev": "trace_begin", "t": 0.0,
             "schema": TRACE_SCHEMA, "label": ""},
            {"eid": 1, "ev": "scenario_begin", "t": 0.1, "scenario": "s",
             "group": "g", "index": 0, "shard": None},
            {"eid": 2, "ev": "scenario_end", "t": 0.2, "scenario": "s",
             "group": "g", "deadlock_free": True, "condition": "theorem1",
             "edges": 0, "new_edges": 0, "solver": {}, "cache": {},
             "wall_time_s": 0.1},
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
        del events[1]["shard"]
        assert any("missing fields" in error
                   for error in validate_trace(events))

    def test_missing_header(self):
        assert any("trace_begin" in error
                   for error in validate_trace(self._valid()[1:]))

    def test_wrong_schema(self):
        events = self._valid()
        events[0]["schema"] = TRACE_SCHEMA + 1
        assert any("schema" in error for error in validate_trace(events))

    def test_unbalanced_scenario_span(self):
        events = self._valid()[:2]
        assert any("unclosed scenario" in error
                   for error in validate_trace(events))

    def test_removed_solver_events_are_unknown(self):
        events = self._valid() + [
            {"eid": 3, "ev": "solve_end", "t": 0.3, "sat": True,
             "delta": {}}]
        assert any("unknown event type 'solve_end'" in error
                   for error in validate_trace(events))

    def test_scrub_timing_strips_nondeterministic_fields(self):
        event = {"eid": 1, "ev": "scenario_end", "t": 0.5,
                 "wall_time_s": 0.2, "cache": {"hits": 1}, "edges": 3}
        scrubbed = scrub_timing(event)
        assert scrubbed == {"eid": 1, "ev": "scenario_end", "edges": 3}


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

    def test_build_counters_agree_between_runs(self):
        # Every run builds each scenario once, so even the build counters
        # (the ENVIRONMENT_FIELDS scrub_timing strips) agree -- only the
        # wall-clock TIMING_FIELDS remain legitimately different.
        def strip_wall(event):
            return {key: value for key, value in event.items()
                    if key not in ("t", "wall_time_s")}

        _, first = _traced_portfolio(SMALL_MATRIX, label="det",
                                     cross_check=True)
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
        # cross-checked workload may not be slower than the traced run of
        # the same workload (which does strictly more work) beyond noise.
        def run_once(trace):
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
# Offline analysis
# ---------------------------------------------------------------------------

class TestTraceAnalysis:

    @pytest.fixture(scope="class")
    def run(self):
        return _traced_portfolio(SMALL_MATRIX, label="analysis",
                                 cross_check=True)

    def test_summary_reconciles_with_session_stats(self, run):
        report, events = run
        summary = trace_analysis.analyze_summary(events)
        assert summary["reconciled"] is True
        assert all(group["reconciled"] for group in summary["groups"])
        # Event-stream deltas sum to the report's own aggregate counters.
        for group in summary["groups"]:
            assert group["stats"] == report.session_stats[group["group"]]
            assert group["scenario_delta_sum"] == group["stats"]
        assert summary["totals"] == {"solves": sum(
            stats["solves"] for stats in report.session_stats.values())}

    def test_summary_detects_mismatch(self, run):
        _, events = run
        tampered = [dict(event) for event in events]
        for event in tampered:
            if event["ev"] == "session_summary":
                event["stats"] = dict(event["stats"])
                event["stats"]["solves"] += 1
                break
        summary = trace_analysis.analyze_summary(tampered)
        assert summary["reconciled"] is False
        assert any("solves" in group["mismatched_keys"]
                   for group in summary["groups"])

    def test_summary_scenario_shares_sum_to_one(self, run):
        _, events = run
        summary = trace_analysis.analyze_summary(events)
        shares = [scenario["share"] for scenario in summary["scenarios"]]
        assert shares == sorted(shares, reverse=True)
        assert abs(sum(shares) - 1.0) < 1e-9

    def test_formatters_render(self, run):
        _, events = run
        formatted = trace_analysis.format_summary(
            trace_analysis.analyze_summary(events))
        assert "reconciliation: OK" in formatted
        assert "per-scenario share of solves" in formatted

    def test_analyses_are_json_serialisable(self, run):
        _, events = run
        analysis = trace_analysis.analyze_summary(events)
        assert json.loads(json.dumps(analysis)) == analysis


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

    def test_trace_subcommands_render_tables(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "run.jsonl")
        main(["batch", "--matrix", SMALL_MATRIX, "--trace", path])
        capsys.readouterr()
        assert main(["trace", "summary", path]) == 0
        assert "reconciliation: OK" in capsys.readouterr().out
        for retired in ("restarts", "hot"):
            with pytest.raises(SystemExit):
                main(["trace", retired, path])
