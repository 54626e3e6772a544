"""Offline analysis of trace-lab event streams (``repro trace``).

The recording side (:mod:`repro.core.trace`) writes what the engine did;
this module answers what it *meant*: how many events of each kind, where
the cross-check's peels went, what the verdict store served.  The
analysis consumes a parsed event list
(:func:`repro.core.trace.load_trace`), returns a JSON-serialisable dict
(the ``--json`` payload) and has a ``format_summary`` companion rendering
the human table.

The :func:`analyze_summary` reconciliation is the trace lab's core
integrity check: per session group, the per-scenario ``scenario_end``
solver deltas must sum exactly to the group's ``session_summary``
aggregate counters -- the event stream and the session's own bookkeeping
describe the same run or the trace is lying.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


def analyze_summary(events: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Whole-run breakdown: totals, per-group reconciliation, peel shares.

    ``reconciled`` is True iff, for every group, the sum of the
    per-scenario ``scenario_end.solver`` deltas equals the group's
    ``session_summary.stats`` on **every** counter the summary reports.
    Empty stats match empty deltas (no ``--cross-check``: no solver ran),
    but solver deltas without a summary never reconcile.
    """
    event_counts: Dict[str, int] = {}
    group_scenario_sums: Dict[str, Dict[str, int]] = {}
    group_scenarios: Dict[str, int] = {}
    group_stats: Dict[str, Dict[str, int]] = {}
    scenarios: List[Dict[str, object]] = []
    store: Dict[str, int] = {"lookups": 0, "hits": 0, "misses": 0,
                             "writes": 0, "writes_skipped": 0,
                             "cached_groups": 0, "cached_scenarios": 0}
    saw_store_events = False
    label = ""
    for event in events:
        ev = str(event.get("ev"))
        event_counts[ev] = event_counts.get(ev, 0) + 1
        if ev == "trace_begin":
            label = str(event.get("label", ""))
        elif ev == "store_lookup":
            saw_store_events = True
            store["lookups"] += 1
            store["hits" if event.get("hit") else "misses"] += 1
        elif ev == "store_write":
            saw_store_events = True
            store["writes" if event.get("written")
                  else "writes_skipped"] += 1
        elif ev == "scenario_end":
            group = str(event.get("group"))
            solver = dict(event.get("solver") or {})
            sums = group_scenario_sums.setdefault(group, {})
            for key, value in solver.items():
                sums[key] = sums.get(key, 0) + int(value)
            group_scenarios[group] = group_scenarios.get(group, 0) + 1
            if event.get("cached"):
                store["cached_scenarios"] += 1
            scenarios.append({
                "scenario": event.get("scenario"),
                "group": group,
                "deadlock_free": event.get("deadlock_free"),
                "status": event.get("status", "ok"),
                "solves": int(solver.get("solves", 0)),
                "wall_time_s": event.get("wall_time_s"),
            })
        elif ev == "session_summary":
            group_stats[str(event.get("group"))] = dict(
                event.get("stats") or {})
            if event.get("cached"):
                store["cached_groups"] += 1

    groups: List[Dict[str, object]] = []
    totals: Dict[str, int] = {}
    reconciled = True
    for group in sorted(set(group_stats) | set(group_scenario_sums)):
        stats = group_stats.get(group, {})
        sums = group_scenario_sums.get(group, {})
        mismatched = sorted(
            key for key in stats
            if int(stats.get(key, 0)) != int(sums.get(key, 0)))
        matched = not mismatched and bool(stats or not sums)
        reconciled = reconciled and matched
        for key, value in stats.items():
            totals[key] = totals.get(key, 0) + int(value)
        groups.append({
            "group": group,
            "scenarios": group_scenarios.get(group, 0),
            "stats": stats,
            "scenario_delta_sum": sums,
            "reconciled": matched,
            "mismatched_keys": mismatched,
        })

    total_solves = int(totals.get("solves", 0))
    for scenario in scenarios:
        scenario["share"] = (scenario["solves"] / total_solves
                             if total_solves else 0.0)
    summary: Dict[str, object] = {
        "label": label,
        "events": len(events),
        "event_counts": dict(sorted(event_counts.items())),
        "groups": groups,
        "totals": totals,
        "scenarios": sorted(scenarios, key=lambda s: -int(s["solves"])),
        "reconciled": reconciled,
    }
    if saw_store_events or store["cached_groups"]:
        # Verdict-store activity (warm-cache runs): replayed groups keep
        # their spans (with ``cached: true``), so the reconciliation above
        # covers cached runs too; this block adds the hit/miss accounting.
        summary["store"] = store
    return summary


def format_summary(summary: Dict[str, object]) -> str:
    from repro.reporting.tables import format_table, verdict_cell

    lines: List[str] = []
    label = summary.get("label") or "(unlabelled)"
    lines.append(f"trace: {summary['events']} events, label {label}")
    counts = summary["event_counts"]
    lines.append("  " + ", ".join(f"{ev}={count}"
                                  for ev, count in counts.items()))
    totals = summary["totals"]
    if totals:
        lines.append(f"session totals: {totals.get('solves', 0)} solves")
    store = summary.get("store")
    if store:
        lines.append(
            f"verdict store: {store['hits']} hits / "
            f"{store['misses']} misses ({store['lookups']} lookups), "
            f"{store['writes']} writes"
            + (f" ({store['writes_skipped']} skipped)"
               if store.get("writes_skipped") else "")
            + f", {store['cached_groups']} groups / "
              f"{store['cached_scenarios']} scenarios replayed from cache")
    rows = [[group["group"], group["scenarios"],
             group["stats"].get("solves", 0),
             "yes" if group["reconciled"] else
             f"NO ({', '.join(group['mismatched_keys']) or 'no summary'})"]
            for group in summary["groups"]]
    if rows:
        lines.append(format_table(
            ["group", "scenarios", "solves", "reconciled"], rows,
            title="session groups"))
    scenario_rows = [[s["scenario"], s["group"], s["solves"],
                      f"{s['share'] * 100:.1f}",
                      verdict_cell(s.get("status"), s["deadlock_free"])]
                     for s in summary["scenarios"]]
    if scenario_rows:
        lines.append(format_table(
            ["scenario", "group", "solves", "share %", "verdict"],
            scenario_rows, title="per-scenario share of solves"))
    lines.append("reconciliation: " +
                 ("OK (scenario deltas sum to session aggregates)"
                  if summary["reconciled"] else "MISMATCH"))
    return "\n".join(lines)
