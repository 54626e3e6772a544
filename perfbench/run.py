#!/usr/bin/env python3
"""The repository benchmark: the ``repro`` CLI timed end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fault-fleet --seed 3 --seconds 10 --trace 0

With ``--trace 0`` the real CLI (``python -m repro batch ... --json`` or
``python -m repro simulate ...``) runs as a subprocess, timed from spawn
to exit, again and again for ``--seconds`` seconds, and the end-to-end
metrics are printed.  With ``--trace 1`` the same command runs in process
(``traced.py``), once plain and once with spans around the public entry
point of every layer (``spans.py``), and the per-layer split is printed.
Every output is checked against ``reference.py``; a mismatch counts as a
failed operation.  The last stdout line is the JSON result, the line
before it the generator output and the exact counts.  ``README.md``
describes the workloads, the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

import workloads  # noqa: E402  (the script's own directory)
from reference import comparable, reference_verdict, scenario_problems  # noqa: E402

#: A seed no tuning run used: re-check a later speed-up claim on it.
HELD_OUT_SEED = 7919
#: A child still running after this long is killed, so a run always ends.
CHILD_TIMEOUT_S = 60
#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_SAMPLES = 7
#: Fewest CLI calls a timed run makes, however short ``--seconds`` is.
MIN_CALLS = 3
SAT_COUNTERS = ("conflicts", "propagations", "decisions")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv, log_path):
    """Run ``argv`` from the checkout root until it exits.

    Returns the wall time from spawn to exit, the child's own peak RSS in
    MiB (``wait4`` reports it for exactly this child) and its exit code.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        process = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                   stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, process.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        except BaseException:
            process.kill()
            process.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    process.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, process.returncode


def read_json(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return {}


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def summarise(walls, rss, latencies, rates) -> dict:
    """The end-to-end metrics of a timed run (``setup_s`` aside)."""
    # No report at all (a broken program): fall back to the call times.
    latencies = latencies or [wall * 1000.0 for wall in walls]
    return {"wall_s": statistics.median(walls),
            "verdict_p50_ms": statistics.median(latencies),
            "verdict_p90_ms": p90(latencies),
            "peak_rss_mb": statistics.median(rss),
            "work_per_s": statistics.median(rates)}


def measure_setup(work: str) -> float:
    """Median wall time of ``import repro.cli`` in a fresh interpreter."""
    argv = [sys.executable, "-c", "import repro.cli"]
    walls = []
    # The first interpreter also writes the bytecode caches an installed
    # package ships with; it is not timed.
    for _ in range(SETUP_SAMPLES + 1):
        wall, _, code = spawn(argv, os.path.join(work, "setup.log"))
        if code != 0:
            raise SystemExit(f"import repro.cli failed (exit {code})")
        walls.append(wall)
    return statistics.median(walls[1:])


# -- the batch workloads ----------------------------------------------------

class Matrix:
    """One scenario matrix with its reference verdicts and exact counts."""

    def __init__(self, terms, seed: int, verdicts: dict) -> None:
        """``verdicts`` caches reference verdicts by spec across matrices."""
        from repro.core.spec import expand_matrix

        self.terms = terms
        specs = expand_matrix(terms)
        self.groups = len({spec.group_key() for spec in specs})
        for spec in specs:
            if spec not in verdicts:
                verdicts[spec] = reference_verdict(spec)
        self.expected = [verdicts[spec] for spec in specs]
        self.generator = {"seed": seed, "terms": terms,
                          "scenarios": len(specs), "groups": self.groups}
        #: ``comparable`` projection of the first report: later reports of
        #: this matrix must repeat it exactly.
        self.baseline = None
        self.exact = None

    def problems(self, report, replay: bool) -> dict:
        """The failed scenarios of one report (see ``scenario_problems``);
        on a warm rerun, every scenario fails unless all groups were
        replayed from the store."""
        problems = scenario_problems(report, self.expected, self.baseline)
        if replay:
            store = report.get("store") or {}
            if store.get("hits") != self.groups or store.get("misses"):
                problems = {index: "not replayed from the store"
                            for index in range(len(self.expected))}
        if self.baseline is None and report:
            self.baseline = comparable(report)
            self.exact = {
                **{f"sat.{counter}": sum(
                    stats.get(counter, 0)
                    for stats in report["session_stats"].values())
                   for counter in SAT_COUNTERS},
                "edges": [entry["edges"] for entry in report["scenarios"]],
                "digest": digest(self.baseline)}
        return problems


class BatchWorkload:
    """``repro batch`` over seeded matrices, checked against the reference.

    A run draws ``workloads.MATRICES_PER_RUN`` matrices from its seed and
    cycles through them, one per CLI call.
    """

    def __init__(self, name: str, seed: int, work: str) -> None:
        self.name, self.work = name, work
        verdicts = {}
        self.matrices = [
            Matrix(workloads.BATCH_WORKLOADS[name](sub_seed), sub_seed,
                   verdicts)
            for sub_seed in workloads.sub_seeds(
                seed, workloads.MATRICES_PER_RUN[name])]
        self.generator = {"seed": seed, "matrices": [
            matrix.generator for matrix in self.matrices]}
        self.failures = {}
        self.attempted = 0
        self.calls = 0
        self.walls = None
        # warm-rerun replays the store that a cold run fills in set-up.
        self.warm_store = (os.path.join(work, "warm-store")
                           if name == "warm-rerun" else None)

    @property
    def exact(self):
        return [matrix.exact for matrix in self.matrices]

    def cli_args(self, matrix: Matrix, report: str, store=None):
        args = ["batch", "--jobs", "1", "--json", report]
        if store is not None:
            args += ["--store", store]
        return args + ["--matrix"] + matrix.terms

    def store_for_call(self):
        """fault-fleet runs cold: every call gets a fresh store."""
        if self.name == "fault-fleet":
            return os.path.join(self.work, f"store-{self.calls}")
        return self.warm_store

    def check(self, matrix: Matrix, report, label: str,
              replay: bool = False) -> None:
        self.attempted += len(matrix.expected)
        for index, message in matrix.problems(report, replay).items():
            self.failures[f"{label}#{index}"] = message

    def prepare(self) -> None:
        if self.warm_store is None:
            return
        report = os.path.join(self.work, "cold.json")
        args = self.cli_args(self.matrices[0], report, self.warm_store)
        spawn([sys.executable, "-m", "repro"] + args,
              os.path.join(self.work, "cold.log"))
        self.check(self.matrices[0], read_json(report), "cold")

    def timed(self, seconds: float) -> dict:
        report = os.path.join(self.work, "report.json")
        log = os.path.join(self.work, "cli.log")
        walls, rss, latencies, rates = [], [], [], []
        least = max(MIN_CALLS, len(self.matrices))
        start = time.perf_counter()
        while len(walls) < least or time.perf_counter() - start < seconds:
            if os.path.exists(report):
                os.remove(report)
            matrix = self.matrices[self.calls % len(self.matrices)]
            store = self.store_for_call()
            argv = ([sys.executable, "-m", "repro"]
                    + self.cli_args(matrix, report, store))
            wall, peak, _ = spawn(argv, log)
            payload = read_json(report)
            self.check(matrix, payload, f"call{self.calls}",
                       replay=self.warm_store is not None)
            if store is not None and store != self.warm_store:
                shutil.rmtree(store, ignore_errors=True)
            self.calls += 1
            walls.append(wall)
            rss.append(peak)
            scenarios = payload.get("scenarios", [])
            rates.append(sum(entry["edges"] for entry in scenarios) / wall)
            if self.name == "fault-fleet":
                latencies += [entry["wall_time_s"] * 1000.0
                              for entry in scenarios]
            else:
                # prove-mesh has too few scenarios for a per-scenario
                # percentile, and warm-rerun's replayed verdicts carry the
                # cold run's times: their verdicts count as ready when the
                # call exits.
                latencies.append(wall * 1000.0)
        self.walls = walls
        return summarise(walls, rss, latencies, rates)

    def traced(self) -> dict:
        matrix = self.matrices[0]
        reports, results = [], []
        for traced in (False, True):
            report = os.path.join(self.work, f"traced-{int(traced)}.json")
            store = self.store_for_call()
            self.calls += 1
            results.append(run_in_process(
                self.cli_args(matrix, report, store), traced, self.work,
                self.name))
            reports.append(read_json(report))
            self.check(matrix, reports[-1], f"inprocess{int(traced)}",
                       replay=self.warm_store is not None)
        layers = results[1].get("layers", {})
        for counter in SAT_COUNTERS:
            layers[f"sat.{counter}"] = sum(
                stats.get(counter, 0)
                for stats in reports[1].get("session_stats", {}).values())
        return overhead(layers, results)


# -- the simulation workload ------------------------------------------------

def parse_simulate(text: str) -> dict:
    """The ``key: value`` lines ``repro simulate`` prints."""
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.strip().partition(": ")
        if sep:
            fields[key] = value
    return fields


class EvacuateWorkload:
    """``repro simulate`` on one seeded traffic pattern."""

    def __init__(self, seed: int, work: str) -> None:
        self.params = workloads.evacuate(seed)
        self.work = work
        self.generator = dict(self.params, traffic="uniform_random")
        self.attempted = 0
        self.failures = {}
        self.exact = None
        self.calls = 0
        self.walls = None

    def cli_args(self):
        params = self.params
        return ["simulate", "--width", str(params["width"]),
                "--height", str(params["height"]),
                "--messages", str(params["messages"]),
                "--flits", str(params["flits"]),
                "--seed", str(params["seed"])]

    def check(self, text: str, label: str, arrived=None) -> int:
        """Check one run's printed verdicts; returns its flit-hops."""
        fields = parse_simulate(text)
        messages = self.params["messages"]
        self.attempted += messages
        problem = None
        if (fields.get("CorrThm") != "holds"
                or fields.get("EvacThm") != "holds"
                or fields.get("evacuated") != "True"
                or fields.get("messages") != str(messages)):
            problem = f"theorem or evacuation failure: {fields}"
        elif arrived is not None and arrived != messages:
            problem = f"{arrived} of {messages} messages arrived"
        else:
            exact = {key: int(fields[key]) for key in
                     ("steps", "peak_flits_in_network", "total_route_length",
                      "flits")}
            if self.exact is None:
                self.exact = dict(exact, digest=digest(exact))
            elif any(self.exact[key] != value
                     for key, value in exact.items()):
                problem = f"nondeterministic counts: {exact}"
        if problem is not None:
            self.failures[label] = problem
            return 0
        return int(fields["total_route_length"]) * self.params["flits"]

    def prepare(self) -> None:
        pass

    def timed(self, seconds: float) -> dict:
        log = os.path.join(self.work, "cli.log")
        argv = [sys.executable, "-m", "repro"] + self.cli_args()
        walls, rss, rates = [], [], []
        start = time.perf_counter()
        while len(walls) < MIN_CALLS or time.perf_counter() - start < seconds:
            wall, peak, _ = spawn(argv, log)
            with open(log, encoding="utf-8", errors="replace") as handle:
                hops = self.check(handle.read(), f"call{self.calls}")
            self.calls += 1
            walls.append(wall)
            rss.append(peak)
            rates.append(hops / wall)
        self.walls = walls
        # One call proves one pair of theorems: its verdicts arrive at exit.
        return summarise(walls, rss, [wall * 1000.0 for wall in walls],
                         rates)

    def traced(self) -> dict:
        results = []
        for traced in (False, True):
            result = run_in_process(self.cli_args(), traced, self.work,
                                    "evacuate")
            arrived = (result.get("counts", {}).get("genoc.arrived", 0)
                       if traced else None)
            self.check(result.get("stdout", ""), f"inprocess{int(traced)}",
                       arrived=arrived)
            results.append(result)
        layers = results[1].get("layers", {})
        for counter in SAT_COUNTERS:
            layers[f"sat.{counter}"] = 0
        return overhead(layers, results)


# -- the traced run ---------------------------------------------------------

def run_in_process(cli_args, traced: bool, work: str, workload: str) -> dict:
    """One CLI call in a fresh interpreter via ``traced.py``."""
    out = os.path.join(work, f"inprocess-{int(traced)}.json")
    config = os.path.join(work, "inprocess-config.json")
    with open(config, "w", encoding="utf-8") as handle:
        json.dump({"argv": cli_args, "traced": traced, "out": out,
                   "spans": os.path.join(WORK_ROOT,
                                         f"spans-{workload}.json")},
                  handle)
    spawn([sys.executable, os.path.join(HERE, "traced.py"), config],
          os.path.join(work, "inprocess.log"))
    return read_json(out)


def overhead(layers: dict, results) -> dict:
    plain, traced = (result.get("wall_s") for result in results)
    layers["trace.overhead_ratio"] = (traced / plain
                                      if plain and traced else 0.0)
    return layers


# -- entry point ------------------------------------------------------------

UNITS = {"setup_s": "s", "wall_s": "s", "verdict_p50_ms": "ms",
         "verdict_p90_ms": "ms", "peak_rss_mb": "MB", "work_per_s": "1/s"}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", "_yield")):
        return "ratio"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"no program to measure: {SRC}/repro/cli.py is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        if args.workload == "evacuate":
            bench = EvacuateWorkload(args.seed, work)
        else:
            bench = BatchWorkload(args.workload, args.seed, work)
        bench.prepare()
        if args.trace:
            values = bench.traced()
            metrics = {name: {"value": value, "unit": layer_unit(name)}
                       for name, value in sorted(values.items())}
        else:
            values = bench.timed(args.seconds)
            values["setup_s"] = measure_setup(work)
            metrics = {name: {"value": value, "unit": UNITS[name]}
                       for name, value in values.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    details = {"workload": args.workload, "held_out_seed": HELD_OUT_SEED,
               "generator": bench.generator, "calls": bench.calls,
               "walls_s": bench.walls, "exact": bench.exact,
               "nondeterministic": any("nondeterministic" in message
                                       for message in
                                       bench.failures.values()),
               "problems": sorted(bench.failures.items())[:10]}
    print(json.dumps({"perfbench": details}))
    failed = len(bench.failures)
    print(json.dumps({"correct": failed == 0, "attempted": bench.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
