"""One scenario at a time: build, decide, drop.

The portfolio builds each scenario right before deciding it and keeps
nothing of it past its verdict, so batch memory is bounded by the
largest scenario, not by the sweep.  Pinned here:

* an unbuildable scenario is its own ``error`` verdict, and the rest of
  its group is still decided (serially, in pool workers, cross-checked
  and traced);
* no built instance or route table outlives the next scenario's
  decision, nor the run (checked with the cyclic GC off, so reference
  counting alone frees them);
* the ``tracemalloc`` peak of a sweep of over 100 scenarios stays within
  2x the peak of its largest scenario run alone;
* ``repro deadlock`` enumerates the dependency graph once.
"""

import contextlib
import gc
import io
import json
import tracemalloc
import weakref

import pytest

import repro.core.dependency as dependency
import repro.core.portfolio as portfolio
from repro.cli import main
from repro.core.portfolio import Scenario, run_portfolio, scenarios_from_specs
from repro.core.spec import expand_matrix
from repro.core.trace import TraceWriter, load_trace, validate_trace
from repro.core.trace_analysis import analyze_summary

#: ``faults=2`` cannot be placed on a 5-ring; the other two rows can.
RING_MATRIX = "ring:5, routing=chain, faults=0..2"


def _ring_report(**kwargs):
    # A second group, so ``jobs=2`` really runs the groups in workers.
    terms = [RING_MATRIX, "ring:4, routing=chain"]
    return run_portfolio(scenarios_from_specs(expand_matrix(terms)),
                         **kwargs)


class TestUnbuildableScenario:
    def _check_ring(self, report):
        ring = report.verdicts[:3]
        assert [verdict.status for verdict in ring] == ["ok", "ok", "error"]
        assert [verdict.deadlock_free for verdict in ring] \
            == [True, True, None]
        assert ring[2].scenario == "ring-5/chain/f2s0"
        assert "cannot place 2 fault(s)" in ring[2].error
        assert ring[0].error is None and ring[1].error is None
        assert report.verdicts[3].status == "ok"
        # Two instances of the ring group and one of ring-4 were built.
        assert report.cache_stats == {"hits": 0, "misses": 3}

    @pytest.mark.parametrize("cross_check", [False, True])
    def test_serial_and_two_jobs_agree(self, cross_check):
        serial = _ring_report(cross_check=cross_check)
        parallel = _ring_report(cross_check=cross_check, jobs=2)
        assert parallel.jobs == 2
        self._check_ring(serial)
        self._check_ring(parallel)
        assert serial.comparable_dict() == parallel.comparable_dict()

    def test_batch_command(self, tmp_path, capsys):
        out = tmp_path / "ring.json"
        for jobs in ("1", "2"):
            code = main(["batch", "--matrix", RING_MATRIX, "--jobs", jobs,
                         "--json", str(out)])
            assert code == 1
            data = json.loads(out.read_text())
            assert [entry["status"] for entry in data["scenarios"]] \
                == ["ok", "ok", "error"]
            assert "instances built: 2" in capsys.readouterr().out

    def test_traced_build_failure_keeps_the_stream_valid(self):
        sink = io.StringIO()
        trace = TraceWriter(sink)
        report = run_portfolio(scenarios_from_specs(expand_matrix(
            RING_MATRIX)), cross_check=True, trace=trace)
        trace.close()
        events = load_trace(sink.getvalue().splitlines())
        assert validate_trace(events) == []
        assert analyze_summary(events)["reconciled"]
        ends = [event for event in events if event["ev"] == "scenario_end"]
        assert [event["status"] for event in ends] == ["ok", "ok", "error"]
        assert ends[2]["cache"] == {"hits": 0, "misses": 0}
        assert not any(event["ev"] == "group_error" for event in events)
        assert report.session_stats["ring-5"]["solves"] == 2

    def test_group_with_an_error_is_not_stored(self, tmp_path):
        report = _ring_report(store=str(tmp_path / "store"))
        # Only ring-4 (all ok) is recorded.
        assert report.store_stats["writes"] == 1


@pytest.fixture
def gc_off():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class TestNothingOutlivesItsVerdict:
    MATRIX = ["mesh:3x3, routing=[xy,west-first,odd-even,adaptive]",
              "vc-mesh:3x3, vcs=1..3", "vc-torus:3x3, vcs=1..2, faults=1",
              "ring:5, routing=[chain,clockwise]"]

    @pytest.mark.parametrize("cross_check", [False, True])
    def test_instances_and_tables_die_scenario_by_scenario(
            self, monkeypatch, gc_off, cross_check):
        refs = []
        alive_at_decision = []
        resolve = Scenario.resolve
        dependency_graph = portfolio.routing_dependency_graph

        def tracked_resolve(scenario):
            instance = resolve(scenario)
            refs.append(weakref.ref(instance))
            return instance

        def tracked_dependency_graph(routing):
            # Every earlier scenario of the run has been decided by now.
            alive_at_decision.append(
                sum(ref() is not None for ref in refs[:-1]))
            graph = dependency_graph(routing)
            refs.append(weakref.ref(routing._route_table))
            return graph

        monkeypatch.setattr(Scenario, "resolve", tracked_resolve)
        monkeypatch.setattr(portfolio, "routing_dependency_graph",
                            tracked_dependency_graph)
        report = run_portfolio(scenarios_from_specs(expand_matrix(
            self.MATRIX)), cross_check=cross_check)
        assert report.failure_count == 0
        assert len(alive_at_decision) == len(report.verdicts) == 11
        assert alive_at_decision == [0] * 11
        assert len(refs) == 22
        assert [ref for ref in refs if ref() is not None] == []


def _traced_peak(terms, cross_check=False):
    """The ``tracemalloc`` peak of one run, above what was traced before."""
    scenarios = scenarios_from_specs(expand_matrix(terms))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_portfolio(scenarios, cross_check=cross_check)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestSweepMemory:
    #: 102 scenarios; the largest is the 3-VC 4x4 mesh.
    SWEEP = ["mesh:2..5x2..5, routing=[xy,yx,west-first,odd-even]",
             "vc-mesh:3..4x3..4, vcs=1..3",
             "ring:4..16, routing=[chain,clockwise]"]
    LARGEST = "vc-mesh:4x4, vcs=3"

    def test_sweep_peak_is_bounded_by_its_largest_scenario(self):
        assert len(expand_matrix(self.SWEEP)) == 102
        # Load every module the sweep needs on other specs first, so
        # neither peak counts imports.
        run_portfolio(scenarios_from_specs(expand_matrix(
            ["mesh:2x2, routing=[xy,yx,west-first,odd-even]",
             "vc-mesh:2x2, vcs=1..3", "ring:3, routing=[chain,clockwise]"])))
        largest = _traced_peak([self.LARGEST])
        sweep = _traced_peak(self.SWEEP)
        assert sweep <= 2 * largest, (
            f"sweep peak {sweep / 2**20:.2f} MiB above 2x the largest "
            f"scenario's {largest / 2**20:.2f} MiB")


class TestDeadlockCommand:
    @pytest.mark.parametrize("design", ["clockwise-ring", "zigzag-mesh"])
    def test_dependency_graph_is_enumerated_once(self, monkeypatch, design):
        calls = []
        enumerate_graph = dependency.dependency_id_graph

        def counted(*args, **kwargs):
            calls.append(args[0].name())
            return enumerate_graph(*args, **kwargs)

        monkeypatch.setattr(dependency, "dependency_id_graph", counted)
        output = io.StringIO()
        with contextlib.redirect_stdout(output):
            assert main(["deadlock", "--design", design]) == 0
        assert len(calls) == 1
        text = output.getvalue()
        assert "VIOLATED" in text
        assert "dependency cycle: " in text
        assert "constructed configuration is a deadlock: True" in text
