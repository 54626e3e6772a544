"""In-memory spans around the public entry point of each layer.

The traced run patches the program's layer entry points from outside
(nothing under ``src/`` changes): every call becomes a span recording its
name, start, end, parent span and scenario id.  Spans stay in memory and
are written out when the run ends.  A span's self time is its duration
minus the part its child spans cover, so the self times of all spans add
up to the duration of the root span (the whole CLI call).
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from typing import Dict, List, Optional

#: Span name -> the per-layer metric holding its summed self time.
SELF_TIME_METRICS = {
    "cli": "cli.self_s",
    "portfolio": "portfolio.self_s",
    "spec.expand": "spec.expand_s",
    "build": "build.s",
    "dependency": "dependency.s",
    "deadlock.add_edge": "deadlock.add_edge_s",
    "deadlock.decide": "deadlock.decide_s",
    "deadlock.core": "deadlock.core_s",
    "deadlock.escape": "deadlock.escape_s",
    "obligations.v1": "obligations.v1_s",
    "store.lookup": "store.lookup_s",
    "store.record": "store.record_s",
    "fingerprint.engine": "fingerprint.engine_s",
    "report.write": "report.write_s",
    "genoc.run": "genoc.run_s",
    "switching.step": "switching.step_s",
    "routing.route": "routing.route_s",
    "deadlock.is_deadlock": "deadlock.is_deadlock_s",
    "theorems.check": "theorems.check_s",
}


class SpanRecorder:
    """The spans of one traced run and the counts taken beside them."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index (-1 for a root), scenario]``
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        #: The scenario the current work belongs to (``None`` outside one).
        self.scenario: Optional[str] = None
        self._open: List[int] = []

    def patch(self, owner, attribute: str, name, before=None,
              after=None) -> None:
        """Replace ``owner.attribute`` by a wrapper that records a span.

        ``name`` is the span name, or a callable giving it at call time.
        ``before(args)`` runs just before the span opens and
        ``after(args, result)`` just after it closes.  A call made directly
        inside a span of the same name (a layer re-entering its own entry
        point) joins that span instead of opening another.
        """
        original = getattr(owner, attribute)
        if getattr(original, "_span_name", None) is not None:
            return
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name() if callable(name) else name
            if open_spans and spans[open_spans[-1]][0] == label:
                return original(*args, **kwargs)
            if before is not None:
                before(args)
            index = len(spans)
            spans.append([label, clock(), 0.0,
                          open_spans[-1] if open_spans else -1,
                          self.scenario])
            open_spans.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                open_spans.pop()
                spans[index][2] = clock()
            if after is not None:
                after(args, result)
            return result

        wrapper._span_name = name
        setattr(owner, attribute, wrapper)

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, float] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] = (totals.get(name, 0.0)
                            + (end - start) - covered[index])
        return totals

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)


def install(recorder: SpanRecorder) -> None:
    """Wrap the public entry point of every layer the workloads reach.

    Theorem 1 (``repro batch``): spec -> build -> dependency ->
    deadlock/sat -> obligations -> store, inside the portfolio.  Theorem 2
    (``repro simulate``): build -> genoc -> switching / routing ->
    theorems.  The SAT session's escape solves go through the same entry
    point as the verdict solve; they are told apart by order, since the
    portfolio asks for the cycle core between the two.
    """
    import repro.cli as cli
    import repro.core.genoc as genoc
    import repro.core.obligations as obligations
    import repro.core.portfolio as portfolio
    import repro.core.spec as spec
    import repro.simulation.simulator as simulator
    from repro.core.cache import instance_cache
    from repro.core.deadlock import DeadlockQuerySession
    from repro.core.store import VerdictStore

    counts = recorder.counts
    state = {"mode": "decide", "cache": (0, 0), "scenario_of": {}}

    def resolve_before(args) -> None:
        cache = instance_cache()
        state["cache"] = (cache.hits, cache.misses)
        recorder.scenario = args[0].name

    def resolve_after(args, instance) -> None:
        cache = instance_cache()
        counts["build.cache_hits"] += cache.hits - state["cache"][0]
        counts["build.cache_misses"] += cache.misses - state["cache"][1]
        state["scenario_of"][id(instance.routing)] = args[0].name

    def dependency_before(args) -> None:
        recorder.scenario = state["scenario_of"].get(id(args[0]))
        state["mode"] = "decide"

    def dependency_after(args, graph) -> None:
        counts["dependency.edges"] += graph.edge_count

    def query_after(args, free) -> None:
        if state["mode"] == "escape" and free:
            counts["deadlock.escape_found"] += 1

    def core_after(args, core) -> None:
        state["mode"] = "escape"

    def lookup_after(args, record) -> None:
        counts["store.lookups"] += 1
        counts["store.hits"] += record is not None

    recorder.patch(spec, "expand_matrix", "spec.expand")
    recorder.patch(portfolio, "run_portfolio", "portfolio")
    recorder.patch(portfolio.Scenario, "resolve", "build",
                   before=resolve_before, after=resolve_after)
    recorder.patch(portfolio, "routing_dependency_graph", "dependency",
                   before=dependency_before, after=dependency_after)
    recorder.patch(DeadlockQuerySession, "add_edge", "deadlock.add_edge")
    recorder.patch(DeadlockQuerySession, "is_deadlock_free_edges",
                   lambda: "deadlock." + state["mode"], after=query_after)
    recorder.patch(DeadlockQuerySession, "cycle_core_for", "deadlock.core",
                   after=core_after)
    recorder.patch(obligations, "check_v1_escape_coverage",
                   "obligations.v1")
    recorder.patch(VerdictStore, "lookup", "store.lookup",
                   after=lookup_after)
    recorder.patch(VerdictStore, "record", "store.record")
    recorder.patch(portfolio, "engine_fingerprint", "fingerprint.engine")
    recorder.patch(portfolio.PortfolioReport, "write_json", "report.write")

    def genoc_before(args) -> None:
        engine = args[0]
        recorder.patch(type(engine.switching), "step", "switching.step")
        recorder.patch(type(engine.routing), "route_configuration",
                       "routing.route")

    def genoc_after(args, result) -> None:
        counts["genoc.steps"] += result.steps
        counts["genoc.peak_flits"] = max(
            [counts["genoc.peak_flits"]]
            + [record.flits_in_network for record in result.history])
        counts["genoc.arrived"] += len(result.final.arrived)

    recorder.patch(cli, "build_hermes_instance", "build")
    recorder.patch(genoc.GeNoCEngine, "run", "genoc.run",
                   before=genoc_before, after=genoc_after)
    recorder.patch(genoc, "is_deadlock", "deadlock.is_deadlock")
    for checker in ("check_correctness", "check_evacuation"):
        recorder.patch(simulator, checker, "theorems.check")


def layer_metrics(recorder: SpanRecorder, wall_s: float) -> Dict[str, float]:
    """Every per-layer metric the spans and counts of one run give."""
    self_times = recorder.self_times()
    metrics: Dict[str, float] = {
        metric: self_times.get(span, 0.0)
        for span, metric in SELF_TIME_METRICS.items()}
    counts = recorder.counts
    escape_solves = recorder.calls("deadlock.escape")
    lookups = counts["store.lookups"]
    metrics.update({
        "build.cache_hits": counts["build.cache_hits"],
        "build.cache_misses": counts["build.cache_misses"],
        "dependency.edges": counts["dependency.edges"],
        "dependency.edges_per_s": (
            counts["dependency.edges"] / metrics["dependency.s"]
            if metrics["dependency.s"] else 0.0),
        "deadlock.decide_solves": recorder.calls("deadlock.decide"),
        "deadlock.escape_solves": escape_solves,
        "deadlock.escape_yield": (
            counts["deadlock.escape_found"] / escape_solves
            if escape_solves else 0.0),
        "obligations.v1_calls": recorder.calls("obligations.v1"),
        "store.hit_ratio": counts["store.hits"] / lookups if lookups else 0.0,
        "genoc.steps": counts["genoc.steps"],
        "genoc.peak_flits": counts["genoc.peak_flits"],
        "trace.wall_s": wall_s,
        "trace.accounted_ratio": sum(self_times.values()) / wall_s,
    })
    return metrics
