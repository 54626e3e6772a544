"""Failure-mode matrix for the durable content-addressed verdict store.

The store's contract is that a warm sweep over already-proved scenario
groups does zero solver work while producing a ``comparable_dict()``
byte-identical report -- and that *no* corruption of the store directory
can ever crash a sweep or change a verdict.  Every clause of that
contract is exercised here: the content-address and checksum primitives,
cold-populate/warm-replay round trips (including the 24-scenario
acceptance matrix), torn records, checksum quarantine, stale-engine
eviction, schema/meta degradation, writer-lock contention, two real
writer processes racing on one store, a randomized corruption fuzz, the
trace lane for cached runs, and the shard-merge of store counters.
"""

import json
import os
import random
import stat
import subprocess
import sys
import time

import pytest

from repro.core.portfolio import (
    engine_fingerprint,
    merge_shard_reports,
    run_portfolio,
    scenarios_from_specs,
)
from repro.core.spec import expand_matrix
from repro.core.store import (
    STORE_COUNTERS,
    STORE_SCHEMA,
    VerdictStore,
    _StoreLock,
    group_record_key,
    make_run_key,
    record_checksum,
    scan_store,
    scenario_fingerprint,
)
from tests.test_fault_tolerance import (
    ACCEPTANCE_MATRIX,
    SMALL_MATRIX,
    object_paths,
)


def small_scenarios():
    return scenarios_from_specs(expand_matrix(SMALL_MATRIX))


def comparable_bytes(report):
    return json.dumps(report.comparable_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# Content addressing and checksums
# ---------------------------------------------------------------------------

class TestAddressing:
    RUN_KEY = {"cross_check": False, "shard": None}
    SPECS = [(0, "aa" * 32), (1, "bb" * 32)]

    def test_key_is_deterministic(self):
        first = group_record_key("k", self.RUN_KEY, "g", self.SPECS)
        second = group_record_key("k", dict(self.RUN_KEY), "g",
                                  list(self.SPECS))
        assert first == second
        assert len(first) == 64

    @pytest.mark.parametrize("mutate", [
        lambda a: a.__setitem__("kind", "other"),
        lambda a: a["run_key"].__setitem__("cross_check", True),
        lambda a: a.__setitem__("group", "other-group"),
        lambda a: a["specs"].reverse(),
        lambda a: a["specs"].pop(),
    ])
    def test_key_covers_every_component(self, mutate):
        args = {"kind": "k", "run_key": dict(self.RUN_KEY), "group": "g",
                "specs": [list(pair) for pair in self.SPECS]}
        base = group_record_key(args["kind"], args["run_key"],
                                args["group"], args["specs"])
        mutate(args)
        assert group_record_key(args["kind"], args["run_key"],
                                args["group"], args["specs"]) != base

    def test_checksum_excludes_itself_and_covers_the_rest(self):
        record = {"schema": STORE_SCHEMA, "group": "g", "verdicts": [1, 2]}
        digest = record_checksum(record)
        assert record_checksum(dict(record, checksum=digest)) == digest
        assert record_checksum(dict(record, group="h")) != digest

    def test_run_key_distinguishes_run_parameters(self):
        base = make_run_key(False, None)
        assert make_run_key(True, None) != base
        assert make_run_key(False, (0, 2)) != base
        assert json.dumps(base, sort_keys=True)  # JSON-serializable

    def test_scenario_fingerprint_tracks_spec_content(self):
        scenarios = small_scenarios()
        prints = {scenario_fingerprint(s) for s in scenarios}
        assert len(prints) == len(scenarios)
        assert engine_fingerprint()  # non-empty, importable from one place

    def test_scenario_fingerprint_distinguishes_specs(self):
        specs = expand_matrix(SMALL_MATRIX)
        hashes = {scenario_fingerprint(spec) for spec in specs}
        assert len(hashes) == len(specs)
        assert scenario_fingerprint(specs[0]) == scenario_fingerprint(
            expand_matrix(SMALL_MATRIX)[0])

    def test_engine_fingerprint_shape(self):
        fingerprint = engine_fingerprint()
        assert fingerprint.startswith("repro-")
        assert len(fingerprint.rsplit("-", 1)[1]) == 16


class TestAtomicWrite:
    def test_directory_is_synced_after_the_rename(self, tmp_path,
                                                  monkeypatch):
        store = VerdictStore(str(tmp_path / "store")).open()
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            events.append(("fsync", kind))
            real_fsync(fd)

        def replace(source, target):
            events.append(("replace", os.path.dirname(target)))
            real_replace(source, target)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        assert store.record(
            engine_fingerprint(), "k", make_run_key(False, None),
            "g", [(0, "aa" * 32)], [(0, {"status": "ok"})], {}, {})
        [record] = object_paths(store.root)
        assert events == [("fsync", "file"),
                          ("replace", os.path.dirname(record)),
                          ("fsync", "dir")]


class TestStoreLock:
    def test_contention_times_out_without_blocking_forever(self, tmp_path):
        path = str(tmp_path / "store.lock")
        holder = _StoreLock(path, timeout=1.0)
        assert holder.acquire()
        contender = _StoreLock(path, timeout=0.05)
        start = time.monotonic()
        assert not contender.acquire()
        assert time.monotonic() - start < 2.0
        holder.release()
        assert contender.acquire()
        contender.release()

    def test_record_counts_lock_timeouts(self, tmp_path):
        store = VerdictStore(str(tmp_path / "store"),
                             lock_timeout=0.05).open()
        holder = _StoreLock(os.path.join(store.root, "store.lock"),
                            timeout=1.0)
        assert holder.acquire()
        try:
            written = store.record(
                engine_fingerprint(), "k",
                make_run_key(False, None), "g",
                [(0, "aa" * 32)], [(0, {"status": "ok"})], {}, {})
        finally:
            holder.release()
        assert not written
        assert store.counters["lock_timeouts"] == 1
        assert store.counters["writes"] == 0


# ---------------------------------------------------------------------------
# Cold-populate / warm-replay round trips
# ---------------------------------------------------------------------------

class TestWarmReplay:
    def test_warm_run_does_zero_solver_work(self, tmp_path):
        store = str(tmp_path / "store")
        cold = run_portfolio(small_scenarios(), store=store)
        assert cold.store_stats["mode"] == "rw"
        assert cold.store_stats["writes"] == 2
        assert cold.store_stats["misses"] == 2
        assert cold.store_stats["replayed_groups"] == []

        warm = run_portfolio(small_scenarios(), store=store)
        assert warm.store_stats["hits"] == 2
        assert warm.store_stats["misses"] == 0
        assert warm.store_stats["writes"] == 0
        assert sorted(warm.store_stats["replayed_groups"]) \
            == ["mesh-3x3", "ring-4"]
        # Zero solver work: no group was ever attempted by the pool, and
        # nothing was built.
        assert warm.recovery["group_attempts"] == {}
        assert warm.cache_stats == {"hits": 0, "misses": 0}
        assert comparable_bytes(warm) == comparable_bytes(cold)

    def test_acceptance_matrix_warm_rerun_is_byte_identical(self, tmp_path):
        scenarios = scenarios_from_specs(expand_matrix(ACCEPTANCE_MATRIX))
        store = str(tmp_path / "store")
        cold = run_portfolio(scenarios, store=store)
        warm = run_portfolio(scenarios, store=store)
        assert warm.recovery["group_attempts"] == {}
        assert warm.store_stats["hits"] == 6
        assert warm.store_stats["misses"] == 0
        assert len(warm.store_stats["replayed_groups"]) == 6
        assert comparable_bytes(warm) == comparable_bytes(cold)
        assert warm.status_counts()["ok"] == 24

    def test_run_parameter_changes_miss(self, tmp_path):
        store = str(tmp_path / "store")
        run_portfolio(small_scenarios(), store=store)
        crossed = run_portfolio(small_scenarios(), store=store,
                                cross_check=True)
        assert crossed.store_stats["hits"] == 0
        assert crossed.store_stats["misses"] == 2

    def test_failed_groups_are_not_recorded(self, tmp_path):
        store = str(tmp_path / "store")
        faulted = run_portfolio(small_scenarios(), store=store,
                                _fault_plan="ring-4=raise")
        assert faulted.store_stats["writes"] == 1  # mesh group only
        warm = run_portfolio(small_scenarios(), store=store)
        assert warm.store_stats["hits"] == 1
        assert warm.store_stats["misses"] == 1
        assert warm.status_counts()["ok"] == 3


# ---------------------------------------------------------------------------
# Failure modes: corruption, staleness, degradation
# ---------------------------------------------------------------------------

class TestFailureModes:
    def populate(self, tmp_path):
        store = str(tmp_path / "store")
        clean = run_portfolio(small_scenarios(), store=store)
        return store, clean

    def test_torn_record_is_quarantined_and_recomputed(self, tmp_path):
        store, clean = self.populate(tmp_path)
        victim = object_paths(store)[0]
        with open(victim, "r+", encoding="utf-8") as handle:
            handle.truncate(len(handle.read()) // 2)
        warm = run_portfolio(small_scenarios(), store=store)
        assert warm.store_stats["quarantined"] == 1
        assert warm.store_stats["hits"] == 1
        assert warm.store_stats["misses"] == 1
        quarantined = os.listdir(os.path.join(store, "quarantine"))
        assert len(quarantined) == 1 and quarantined[0].endswith(".torn.json")
        assert comparable_bytes(warm) == comparable_bytes(clean)
        # The recompute re-recorded the group: the next run is all hits.
        healed = run_portfolio(small_scenarios(), store=store)
        assert healed.store_stats["hits"] == 2

    def test_checksum_mismatch_is_quarantined(self, tmp_path):
        store, clean = self.populate(tmp_path)
        victim = object_paths(store)[0]
        with open(victim, encoding="utf-8") as handle:
            record = json.load(handle)
        record["session_stats"] = {"decisions": 10 ** 9}  # silent tamper
        with open(victim, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
        warm = run_portfolio(small_scenarios(), store=store)
        assert warm.store_stats["quarantined"] == 1
        names = os.listdir(os.path.join(store, "quarantine"))
        assert names and names[0].endswith(".checksum.json")
        assert comparable_bytes(warm) == comparable_bytes(clean)

    def test_stale_engine_fingerprint_evicts_and_recomputes(self, tmp_path):
        store, clean = self.populate(tmp_path)
        for path in object_paths(store):
            with open(path, encoding="utf-8") as handle:
                record = json.load(handle)
            record["fingerprint"] = "repro-0.0.0-deadbeefdeadbeef"
            record["checksum"] = record_checksum(record)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(record, handle, sort_keys=True)
        warm = run_portfolio(small_scenarios(), store=store)
        assert warm.store_stats["evicted"] == 2
        assert warm.store_stats["hits"] == 0
        assert warm.store_stats["quarantined"] == 0
        assert comparable_bytes(warm) == comparable_bytes(clean)
        # Eviction freed the slots and the recompute re-wrote them under
        # the live fingerprint -- no stranded dead objects.
        scan = scan_store(store)
        assert scan["fingerprints"] == {engine_fingerprint(): 2}

    def test_schema_mismatch_turns_the_store_off(self, tmp_path):
        store, clean = self.populate(tmp_path)
        with open(os.path.join(store, "store-meta.json"), "w",
                  encoding="utf-8") as handle:
            json.dump({"schema": STORE_SCHEMA + 1}, handle)
        warm = run_portfolio(small_scenarios(), store=store)
        assert warm.store_stats["mode"] == "off"
        assert "degraded_reason" in warm.store_stats
        assert warm.store_stats["hits"] == 0
        assert warm.store_stats["writes"] == 0
        assert comparable_bytes(warm) == comparable_bytes(clean)

    def test_unparseable_meta_turns_the_store_off(self, tmp_path):
        store, clean = self.populate(tmp_path)
        with open(os.path.join(store, "store-meta.json"), "w",
                  encoding="utf-8") as handle:
            handle.write("{half a json obj")
        warm = run_portfolio(small_scenarios(), store=store)
        assert warm.store_stats["mode"] == "off"
        assert comparable_bytes(warm) == comparable_bytes(clean)

    def test_readonly_flag_serves_hits_but_never_writes(self, tmp_path):
        store, clean = self.populate(tmp_path)
        before = {path: os.stat(path).st_mtime_ns
                  for path in object_paths(store)}
        warm = run_portfolio(small_scenarios(), store=store,
                             store_readonly=True)
        assert warm.store_stats["mode"] == "ro"
        assert warm.store_stats["hits"] == 2
        assert warm.store_stats["writes"] == 0
        assert comparable_bytes(warm) == comparable_bytes(clean)
        after = {path: os.stat(path).st_mtime_ns
                 for path in object_paths(store)}
        assert after == before

    def test_readonly_empty_store_recomputes_without_writing(self, tmp_path):
        store = str(tmp_path / "store")
        report = run_portfolio(small_scenarios(), store=store,
                               store_readonly=True)
        assert report.store_stats["mode"] in ("ro", "off")
        assert report.store_stats["writes"] == 0
        assert report.status_counts()["ok"] == 3

    @pytest.mark.skipif(os.geteuid() == 0,
                        reason="root ignores directory permissions")
    def test_unwritable_directory_degrades_to_readonly(self, tmp_path):
        store, clean = self.populate(tmp_path)
        os.chmod(store, 0o555)
        try:
            warm = run_portfolio(small_scenarios(), store=store)
        finally:
            os.chmod(store, 0o755)
        assert warm.store_stats["mode"] == "ro"
        assert warm.store_stats["hits"] == 2
        assert comparable_bytes(warm) == comparable_bytes(clean)

    def test_write_failure_degrades_to_readonly_midrun(self, tmp_path,
                                                       monkeypatch):
        store = VerdictStore(str(tmp_path / "store")).open()
        assert store.mode == "rw"

        def explode(_path, _payload):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(store, "_atomic_write", explode)
        written = store.record(
            engine_fingerprint(), "k",
            make_run_key(False, None), "g",
            [(0, "aa" * 32)], [(0, {"status": "ok"})], {}, {})
        assert not written
        assert store.mode == "ro"
        assert store.counters["write_errors"] == 1
        assert "unwritable" in store.degraded_reason

    def test_missing_store_directory_parent_never_raises(self, tmp_path):
        # A store rooted in a file (so makedirs fails) must degrade, not
        # crash the sweep.
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        report = run_portfolio(small_scenarios(),
                               store=str(blocker / "store"))
        assert report.store_stats["mode"] == "off"
        assert report.status_counts()["ok"] == 3


class TestConcurrentWriters:
    def test_two_writer_processes_race_safely(self, tmp_path):
        store = str(tmp_path / "store")
        env = dict(os.environ, PYTHONPATH="src")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        processes = []
        for index in range(2):
            report = str(tmp_path / f"report-{index}.json")
            processes.append(subprocess.Popen(
                [sys.executable, "-m", "repro", "batch",
                 "--matrix", SMALL_MATRIX,
                 "--store", store, "--json", report],
                cwd=root, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL))
        for process in processes:
            assert process.wait(timeout=120) == 0
        scan = scan_store(store)
        assert scan["damaged"] == 0
        assert scan["quarantined"] == 0
        assert scan["records"] == 2
        warm = run_portfolio(small_scenarios(), store=store)
        assert warm.store_stats["hits"] == 2
        assert warm.recovery["group_attempts"] == {}


class TestCorruptionFuzz:
    def corrupt(self, rng, path):
        with open(path, "rb") as handle:
            blob = bytearray(handle.read())
        action = rng.choice(["truncate", "flip", "garbage", "empty"])
        if action == "truncate" and len(blob) > 1:
            blob = blob[:rng.randrange(1, len(blob))]
        elif action == "flip" and blob:
            position = rng.randrange(len(blob))
            blob[position] ^= 1 << rng.randrange(8)
        elif action == "garbage":
            blob = bytes(rng.randrange(256) for _ in range(64))
        else:
            blob = b""
        with open(path, "wb") as handle:
            handle.write(bytes(blob))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_corruption_never_crashes_or_lies(self, seed, tmp_path):
        store = str(tmp_path / "store")
        clean = run_portfolio(small_scenarios(), store=store)
        rng = random.Random(seed)
        targets = object_paths(store)
        for path in rng.sample(targets, rng.randrange(1, len(targets) + 1)):
            self.corrupt(rng, path)
        warm = run_portfolio(small_scenarios(), store=store)
        assert comparable_bytes(warm) == comparable_bytes(clean)
        assert warm.status_counts()["ok"] == 3
        # Whatever the damage, a bit-flip must never still count as a
        # hit for a record whose content changed *and* pass checksum --
        # hits plus recomputed misses always cover every group.
        assert warm.store_stats["hits"] + warm.store_stats["misses"] == 2

    def test_scan_store_counts_damage_without_moving_it(self, tmp_path):
        store = str(tmp_path / "store")
        run_portfolio(small_scenarios(), store=store)
        victim = object_paths(store)[0]
        with open(victim, "w", encoding="utf-8") as handle:
            handle.write("torn")
        scan = scan_store(store)
        assert scan["schema"] == STORE_SCHEMA
        assert scan["records"] == 1
        assert scan["damaged"] == 1
        assert os.path.exists(victim)  # scan is strictly read-only


# ---------------------------------------------------------------------------
# Trace lane and shard merging for cached runs
# ---------------------------------------------------------------------------

class TestStoreTraceLane:
    def test_warm_traced_run_validates_and_reconciles(self, tmp_path):
        from repro.core.trace import TraceWriter, load_trace, validate_trace
        from repro.core.trace_analysis import analyze_summary

        store = str(tmp_path / "store")
        run_portfolio(small_scenarios(), store=store)
        path = str(tmp_path / "trace.jsonl")
        with TraceWriter(path, label="warm store run") as trace:
            run_portfolio(small_scenarios(), store=store, trace=trace)
        events = load_trace(path)
        assert validate_trace(events) == []
        lookups = [e for e in events if e["ev"] == "store_lookup"]
        assert len(lookups) == 2 and all(e["hit"] for e in lookups)
        cached_ends = [e for e in events if e["ev"] == "scenario_end"
                       and e.get("cached")]
        assert len(cached_ends) == 3
        summary = analyze_summary(events)
        assert summary["reconciled"]
        assert summary["store"]["hits"] == 2
        assert summary["store"]["cached_groups"] == 2
        assert summary["store"]["cached_scenarios"] == 3

    def test_cold_traced_run_counts_writes(self, tmp_path):
        from repro.core.trace import TraceWriter, load_trace
        from repro.core.trace_analysis import analyze_summary

        store = str(tmp_path / "store")
        path = str(tmp_path / "trace.jsonl")
        with TraceWriter(path, label="cold store run") as trace:
            run_portfolio(small_scenarios(), store=store, trace=trace)
        summary = analyze_summary(load_trace(path))
        assert summary["store"]["misses"] == 2
        assert summary["store"]["writes"] == 2
        assert summary["store"]["cached_groups"] == 0

    def test_storeless_trace_summary_has_no_store_section(self, tmp_path):
        from repro.core.trace import TraceWriter, load_trace
        from repro.core.trace_analysis import analyze_summary

        path = str(tmp_path / "trace.jsonl")
        with TraceWriter(path, label="plain run") as trace:
            run_portfolio(small_scenarios(), trace=trace)
        summary = analyze_summary(load_trace(path))
        assert "store" not in summary


class TestMergeStoreStats:
    def test_merge_sums_counters_and_unions_replayed_groups(self, tmp_path):
        store = str(tmp_path / "store")
        scenarios = small_scenarios()
        populated = [run_portfolio(scenarios, shard=(index, 2), store=store)
                     for index in range(2)]
        shards = [run_portfolio(scenarios, shard=(index, 2), store=store)
                  for index in range(2)]
        merged = merge_shard_reports(shards)
        assert merged.store_stats["mode"] == "rw"
        # The shard key is part of the record address, so each warm shard
        # hits exactly what its own populate run wrote.
        assert merged.store_stats["hits"] \
            == sum(report.store_stats["writes"] for report in populated) > 0
        assert merged.store_stats["misses"] == 0
        assert sorted(merged.store_stats["replayed_groups"]) == sorted(
            group for report in shards
            for group in report.store_stats["replayed_groups"])
        for counter in STORE_COUNTERS:
            assert counter in merged.store_stats
        assert merged.comparable_dict() \
            == run_portfolio(scenarios).comparable_dict()

    def test_merge_of_storeless_reports_has_no_store_block(self):
        scenarios = small_scenarios()
        shards = [run_portfolio(scenarios, shard=(index, 2))
                  for index in range(2)]
        merged = merge_shard_reports(shards)
        assert merged.store_stats == {}
        assert "store" not in merged.to_json_dict()

    def test_merge_marks_mixed_modes(self, tmp_path):
        store = str(tmp_path / "store")
        scenarios = small_scenarios()
        rw_shard = run_portfolio(scenarios, shard=(0, 2), store=store)
        ro_shard = run_portfolio(scenarios, shard=(1, 2), store=store,
                                 store_readonly=True)
        merged = merge_shard_reports([rw_shard, ro_shard])
        assert merged.store_stats["mode"] == "mixed"
