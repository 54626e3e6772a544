"""Fault-tolerance matrix for the portfolio engine.

Every failure mode the engine claims to survive is injected
deterministically here (:mod:`repro.core.faultplan`) and the recovered
run is held to the engine's core invariant: the comparable verdict
projection is identical to a fault-free run.  The matrix covers worker
kills (pool rebuild + retry), repeated kills (serial degradation),
planned errors and timeouts (structured verdicts), hung workers (parent
watch-loop reaping), run deadlines, resume by rerunning with the same
verdict store -- including resume after a SIGKILLed sweep on the
24-scenario acceptance matrix -- and the ``repro batch`` SIGINT epilogue.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.errors import SolverTimeout
from repro.core.faultplan import (
    DEFAULT_HANG_SECONDS,
    FAULT_PLAN_ENV,
    FaultDirective,
    FaultPlan,
    execute_directive,
    resolve_fault_plan,
)
from repro.core.portfolio import (
    PortfolioReport,
    ScenarioVerdict,
    merge_shard_reports,
    run_portfolio,
    scenarios_from_specs,
)
from repro.core.spec import expand_matrix
from repro.core.store import scan_store

# Two session groups, three scenarios: small enough that every test in
# the matrix re-solves it in well under a second, structured enough
# (multi-scenario group + single-scenario group) to exercise group-level
# recovery, recording and replay.
SMALL_MATRIX = "mesh:3x3, routing=[xy,yx]; ring:4, routing=clockwise"

# The PR-4 acceptance matrix (24 scenarios, 6 session groups) -- the
# SIGKILL/resume test runs the real workload, not a toy.
ACCEPTANCE_MATRIX = (
    "mesh:3x3, routing=[xy,yx,west-first,north-last,negative-first,"
    "adaptive,zigzag], switching=wormhole; "
    "mesh:3x3, routing=xy, switching=vct; "
    "mesh:4x4, routing=[xy,yx], switching=wormhole; "
    "ring:4, routing=chain; ring:4, routing=clockwise, buffers=1; "
    "vc-mesh:3x3, vcs=1..4; vc-torus:4x4, vcs=1..4; vc-ring:4, vcs=1..4"
)


def small_scenarios():
    return scenarios_from_specs(expand_matrix(SMALL_MATRIX))


# ---------------------------------------------------------------------------
# Fault-plan parsing and execution
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_parse_round_trips(self):
        text = "mesh-3x3=kill; ring-4=hang:2.5@*; vc-ring-4=raise@3"
        plan = FaultPlan.parse(text)
        assert FaultPlan.parse(plan.to_text()) == plan

    def test_directive_attempt_windows(self):
        plan = FaultPlan.parse("a=kill@2; b=timeout@*; c=raise")
        assert plan.directive_for("a", 1).action == "kill"
        assert plan.directive_for("a", 2).action == "kill"
        assert plan.directive_for("a", 3) is None
        assert plan.directive_for("b", 99).action == "timeout"
        assert plan.directive_for("c", 1).action == "raise"
        assert plan.directive_for("c", 2) is None
        assert plan.directive_for("unlisted", 1) is None

    def test_hang_param_and_defaults(self):
        plan = FaultPlan.parse("a=hang:0.25")
        directive = plan.directive_for("a", 1)
        assert directive.param == 0.25
        assert FaultPlan.parse("a=hang").directive_for("a", 1).param == 0.0
        assert DEFAULT_HANG_SECONDS > 0

    @pytest.mark.parametrize("bad", [
        "mesh-3x3",               # no '='
        "mesh-3x3=explode",       # unknown action
        "=kill",                  # empty group
        "a=kill@0",               # attempts < 1
        "a=kill@x",               # non-integer attempts
        "a=hang:fast",            # non-numeric param
        "a=kill; a=raise",        # duplicate group
    ])
    def test_parse_is_strict(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv(FAULT_PLAN_ENV, "g=timeout")
        assert FaultPlan.from_env() == FaultPlan.parse("g=timeout")

    def test_resolve_variants(self, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        assert resolve_fault_plan(None) is None
        plan = FaultPlan.parse("g=kill")
        assert resolve_fault_plan(plan) is plan
        assert resolve_fault_plan("g=kill") == plan
        monkeypatch.setenv(FAULT_PLAN_ENV, "g=raise")
        assert resolve_fault_plan(None) == FaultPlan.parse("g=raise")

    def test_execute_raise_and_timeout_fire_anywhere(self):
        with pytest.raises(RuntimeError):
            execute_directive(("raise", 0.0), in_worker=False)
        with pytest.raises(SolverTimeout):
            execute_directive(("timeout", 0.0), in_worker=True)

    def test_execute_kill_and_hang_are_parent_noops(self):
        # A kill/hang directive must never take down (or wedge) the
        # orchestrating process -- that is what makes kill@* prove the
        # serial degradation path.
        execute_directive(("kill", 0.0), in_worker=False)
        execute_directive(("hang", 30.0), in_worker=False)
        execute_directive(None, in_worker=True)


# ---------------------------------------------------------------------------
# Injected engine faults through run_portfolio
# ---------------------------------------------------------------------------

class TestInjectedFaults:
    @pytest.fixture(scope="class")
    def clean(self):
        return run_portfolio(small_scenarios()).comparable_dict()

    def test_raise_yields_error_verdicts_and_the_run_continues(self):
        report = run_portfolio(small_scenarios(), _fault_plan="mesh-3x3=raise")
        by_status = report.status_counts()
        assert by_status["error"] == 2
        assert by_status["ok"] == 1
        for verdict in report.verdicts:
            if verdict.status == "error":
                assert verdict.deadlock_free is None
                assert "planned worker failure" in verdict.error
        assert report.failure_count == 2
        again = run_portfolio(small_scenarios(), _fault_plan="mesh-3x3=raise")
        assert report.comparable_dict() == again.comparable_dict()

    def test_planned_timeout_yields_timeout_verdicts(self):
        report = run_portfolio(small_scenarios(), _fault_plan="ring-4=timeout")
        statuses = {v.scenario: v.status for v in report.verdicts}
        assert statuses["ring-4/clockwise"] == "timeout"
        assert statuses["mesh-3x3/Rxy/Swh"] == "ok"
        payload = report.to_json_dict()
        assert payload["summary"]["timeouts"] == 1
        assert payload["summary"]["errors"] == 0

    def test_killed_worker_is_retried_to_an_identical_report(self, clean):
        report = run_portfolio(small_scenarios(), jobs=2,
                               _fault_plan="mesh-3x3=kill@1")
        assert report.recovery["crash_retries"] >= 1
        assert not report.recovery["degraded_serial"]
        assert report.comparable_dict() == clean

    def test_persistent_kills_degrade_to_serial_identically(self, clean):
        report = run_portfolio(small_scenarios(), jobs=2, max_retries=1,
                               retry_backoff=0.01,
                               _fault_plan="mesh-3x3=kill@*")
        assert report.recovery["degraded_serial"]
        assert report.recovery["crash_retries"] >= 2
        assert report.comparable_dict() == clean

    def test_hung_worker_is_reaped_by_the_watch_loop(self):
        started = time.monotonic()
        report = run_portfolio(small_scenarios(), jobs=2, group_timeout=0.4,
                               _fault_plan="ring-4=hang:60@*")
        elapsed = time.monotonic() - started
        assert elapsed < 30, "the hung worker wedged the run"
        statuses = {v.scenario: v.status for v in report.verdicts}
        assert statuses["ring-4/clockwise"] == "timeout"
        assert statuses["mesh-3x3/Rxy/Swh"] == "ok"
        assert statuses["mesh-3x3/Ryx/Swh"] == "ok"

    def test_run_deadline_zero_times_out_everything(self):
        report = run_portfolio(small_scenarios(), run_deadline=0)
        assert all(v.status == "timeout" for v in report.verdicts)
        assert all("run deadline exceeded" in v.error
                   for v in report.verdicts)
        assert len(report.verdicts) == 3  # every scenario got a verdict

    def test_failure_verdicts_keep_scenario_identity_and_order(self):
        report = run_portfolio(small_scenarios(), _fault_plan="ring-4=raise")
        assert [v.index for v in report.verdicts] == [0, 1, 2]
        failed = [v for v in report.verdicts if v.status == "error"]
        assert [v.scenario for v in failed] == ["ring-4/clockwise"]

    def test_fault_plan_env_reaches_the_engine(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "mesh-3x3=raise")
        report = run_portfolio(small_scenarios())
        assert report.status_counts()["error"] == 2


# ---------------------------------------------------------------------------
# Resume: rerun with the same verdict store
# ---------------------------------------------------------------------------

def object_paths(root):
    """All record files currently in the store, sorted for determinism."""
    paths = []
    for dirpath, _dirnames, filenames in os.walk(
            os.path.join(root, "objects")):
        for name in sorted(filenames):
            if name.endswith(".json") and not name.startswith(".tmp-"):
                paths.append(os.path.join(dirpath, name))
    return sorted(paths)


class TestCheckpointResume:
    """The verdict store is the checkpoint: every all-``ok`` group is
    recorded as it completes, and rerunning with the same store resumes."""

    def test_resume_replays_without_resolving(self, tmp_path, monkeypatch):
        store = str(tmp_path / "store")
        first = run_portfolio(small_scenarios(), store=store)

        import repro.core.portfolio as portfolio_module
        calls = {"n": 0}
        original = portfolio_module._run_group

        def counting(payload, trace=None):
            calls["n"] += 1
            return original(payload, trace=trace)

        monkeypatch.setattr(portfolio_module, "_run_group", counting)
        resumed = run_portfolio(small_scenarios(), store=store)
        assert calls["n"] == 0, "resume re-solved recorded groups"
        assert resumed.store_stats["replayed_groups"] == ["mesh-3x3",
                                                          "ring-4"]
        assert resumed.comparable_dict() == first.comparable_dict()

    def test_partial_store_resolves_only_the_missing_group(
            self, tmp_path, monkeypatch):
        store = str(tmp_path / "store")
        run_portfolio(small_scenarios(), store=store)
        for path in object_paths(store):
            with open(path, encoding="utf-8") as handle:
                if json.load(handle)["group"] == "ring-4":
                    os.unlink(path)

        import repro.core.portfolio as portfolio_module
        solved = []
        original = portfolio_module._run_group

        def recording(payload, trace=None):
            solved.append(payload[0])
            return original(payload, trace=trace)

        monkeypatch.setattr(portfolio_module, "_run_group", recording)
        resumed = run_portfolio(small_scenarios(), store=store)
        assert solved == ["ring-4"]
        assert resumed.store_stats["replayed_groups"] == ["mesh-3x3"]

    def test_resume_after_sigkill_is_byte_identical(self, tmp_path):
        """SIGKILL a sweep of the 24-scenario acceptance matrix mid-run;
        rerunning with its store must reproduce the clean run's
        comparable projection byte for byte."""
        store = str(tmp_path / "store")
        env = dict(os.environ,
                   PYTHONPATH="src",
                   REPRO_FAULT_PLAN="vc-ring-4=hang:120@*")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "batch",
             "--matrix", ACCEPTANCE_MATRIX, "--jobs", "2",
             "--store", store],
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True)
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if scan_store(store)["records"] >= 2:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("no store records appeared before SIGKILL")
        finally:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)

        recorded = set()
        for path in object_paths(store):
            with open(path, encoding="utf-8") as handle:
                recorded.add(json.load(handle)["group"])
        assert recorded, "the killed sweep left no replayable groups"

        scenarios = scenarios_from_specs(expand_matrix(ACCEPTANCE_MATRIX))
        clean = run_portfolio(scenarios)
        resumed = run_portfolio(scenarios, store=store)
        assert set(resumed.store_stats["replayed_groups"]) == recorded
        clean_bytes = json.dumps(clean.comparable_dict(), sort_keys=True)
        resumed_bytes = json.dumps(resumed.comparable_dict(), sort_keys=True)
        assert clean_bytes == resumed_bytes


# ---------------------------------------------------------------------------
# Reporting and merging of failure verdicts
# ---------------------------------------------------------------------------

class TestFailureReporting:
    def test_merge_overlap_error_names_the_duplicate_indices(self):
        report = run_portfolio(small_scenarios())
        with pytest.raises(ValueError) as excinfo:
            merge_shard_reports([report, report])
        message = str(excinfo.value)
        assert "duplicate scenario indices" in message
        assert "0" in message and "2" in message

    def test_merge_unions_recovery(self):
        scenarios = small_scenarios()
        shards = [run_portfolio(scenarios, shard=(index, 2))
                  for index in range(2)]
        merged = merge_shard_reports(shards)
        assert merged.comparable_dict() \
            == run_portfolio(scenarios).comparable_dict()
        assert merged.recovery["crash_retries"] == 0

    def test_merge_pins_the_schema_4_status_and_recovery_blocks(self):
        """Merging shard reports must preserve the schema-4 failure
        surface exactly: per-scenario ``status``/``error`` fields from a
        faulted shard, and the merged ``recovery`` block's pinned key
        set.  Bump the report schema when changing either shape."""
        scenarios = small_scenarios()
        # The plan names ring-4, so whichever shard owns it produces the
        # timeout verdict; the other shard's plan never fires.
        shards = [run_portfolio(scenarios, shard=(index, 2),
                                _fault_plan="ring-4=timeout")
                  for index in range(2)]
        merged = merge_shard_reports(shards)
        payload = merged.to_json_dict()
        assert payload["schema"] == 4
        assert set(payload["recovery"]) == {
            "crash_retries", "degraded_serial", "group_attempts"}
        shard_entries = {entry["scenario"]: entry
                         for report in shards
                         for entry in report.to_json_dict()["scenarios"]}
        statuses = set()
        for entry in payload["scenarios"]:
            assert entry == shard_entries[entry["scenario"]]
            statuses.add(entry["status"])
        assert "timeout" in statuses  # the fault survived the merge

    def test_verdict_json_round_trip_preserves_failures(self):
        report = run_portfolio(small_scenarios(), _fault_plan="ring-4=raise")
        for verdict in report.verdicts:
            entry = verdict.to_json_dict()
            back = ScenarioVerdict.from_json_dict(entry,
                                                  index=verdict.index)
            assert back.to_json_dict() == entry
            assert back.status == verdict.status

    def test_formatted_table_marks_failures(self):
        report = run_portfolio(small_scenarios(),
                               _fault_plan="ring-4=timeout")
        table = report.formatted()
        assert "TIMEOUT" in table
        assert "DEADLOCK-PRONE" not in table  # undecided is not prone
        assert "timed out" in report.summary()

    def test_traced_fault_run_validates_and_records_group_events(
            self, tmp_path):
        from repro.core.trace import TraceWriter, load_trace, validate_trace

        path = str(tmp_path / "trace.jsonl")
        with TraceWriter(path, label="fault trace") as trace:
            run_portfolio(small_scenarios(), trace=trace,
                          _fault_plan="ring-4=timeout")
        events = load_trace(path)
        assert validate_trace(events) == []
        timeouts = [event for event in events
                    if event["ev"] == "group_timeout"]
        assert [event["group"] for event in timeouts] == ["ring-4"]
        assert "injected fault" in timeouts[0]["reason"]
        # The planned timeout fires at group start, before any ring
        # scenario span opens -- only the mesh scenarios reach
        # scenario_end, and they end cleanly.
        ends = {event["scenario"]: event.get("status", "ok")
                for event in events if event["ev"] == "scenario_end"}
        assert ends == {"mesh-3x3/Rxy/Swh": "ok", "mesh-3x3/Ryx/Swh": "ok"}


# ---------------------------------------------------------------------------
# CLI exit codes and the SIGINT epilogue
# ---------------------------------------------------------------------------

class TestBatchCli:
    REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    def _batch(self, *extra, env_extra=None, timeout=120):
        env = dict(os.environ, PYTHONPATH="src")
        env.pop(FAULT_PLAN_ENV, None)
        env.update(env_extra or {})
        return subprocess.run(
            [sys.executable, "-m", "repro", "batch",
             "--matrix", SMALL_MATRIX] + list(extra),
            cwd=self.REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=timeout)

    def test_exit_zero_on_clean_run(self):
        result = self._batch()
        assert result.returncode == 0, result.stderr

    def test_exit_nonzero_on_planned_timeout(self, tmp_path):
        out = str(tmp_path / "report.json")
        result = self._batch(
            "--json", out,
            env_extra={FAULT_PLAN_ENV: "ring-4=timeout"})
        assert result.returncode == 1, result.stdout
        payload = json.load(open(out))
        assert payload["summary"]["timeouts"] == 1

    def test_sigint_prints_partial_table_and_exits_130(self, tmp_path):
        store = str(tmp_path / "store")
        env = dict(os.environ, PYTHONPATH="src")
        env[FAULT_PLAN_ENV] = "ring-4=hang:120@*"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "batch",
             "--matrix", SMALL_MATRIX, "--jobs", "2", "--store", store],
            cwd=self.REPO_ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if scan_store(store)["records"]:
                break
            time.sleep(0.05)
        time.sleep(0.2)
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 130, out
        assert "partial results" in out
        assert "mesh-3x3" in out
        assert f"rerun with --store {store} to resume" in out

    @pytest.mark.parametrize("flags, message", [
        (["--timeout", "0"], "--timeout must be > 0"),
        (["--timeout", "-1"], "--timeout must be > 0"),
        (["--deadline", "-5"], "--deadline must be > 0"),
        (["--jobs", "-2"], "--jobs must be >= 0"),
    ], ids=["timeout-zero", "timeout-negative", "deadline-negative",
            "jobs-negative"])
    def test_invalid_budgets_and_job_counts_are_rejected(self, flags,
                                                         message):
        """A non-positive budget would turn every scenario into a
        TIMEOUT verdict, and a negative job count is not the documented
        "0 = one per core": both are usage errors before any work."""
        from repro.cli import main

        with pytest.raises(SystemExit, match=message):
            main(["batch", "--matrix", SMALL_MATRIX] + flags)

    @pytest.mark.parametrize("flags, message", [
        (["--buffers", "0"], "buffers must be at least 1"),
        (["--mesh-sizes", "0"], "dimensions must be positive"),
        (["--mesh-sizes", "3", "--ring-sizes", "0"],
         "dimensions must be positive"),
    ], ids=["buffers-zero", "mesh-size-zero", "ring-size-zero"])
    def test_invalid_sweep_sizes_are_usage_errors(self, flags, message):
        """The sweep built without --matrix goes through the same spec
        validation as --matrix, so a bad size is the same usage error,
        not a traceback."""
        from repro.cli import main

        with pytest.raises(SystemExit,
                           match=f"invalid scenario matrix: .*{message}"):
            main(["batch"] + flags)

    @pytest.mark.parametrize("flag", ["--vc-mesh-sizes", "--torus-sizes"])
    def test_vc_sweep_sizes_without_vcs_are_usage_errors(self, flag):
        """The VC escape sweep runs only at the --vcs counts, so sizing it
        without them used to run nothing and exit 0."""
        from repro.cli import main

        with pytest.raises(SystemExit, match=f"{flag} requires --vcs"):
            main(["batch", flag, "4", "--mesh-sizes", "--ring-sizes"])

    def test_sigint_without_store_says_the_sweep_is_not_resumable(
            self, capsys):
        import argparse

        from repro.cli import _batch_interrupted

        args = argparse.Namespace(store=None)
        assert _batch_interrupted(args, small_scenarios(), None) == 130
        assert "not resumable" in capsys.readouterr().out
