"""``repro simulate`` output pinned across commits.

``tests/data/simulate_exact.json`` holds the printed key/value block of
``repro simulate`` (minus the wall-clock ``elapsed_seconds`` line) for a
4x4 and an 8x8 HERMES mesh on two seeds, plus two cases with long source
queues (4x4 with 400 messages and one-flit buffers, 8x8 with 2,400
messages), where most worms wait un-injected for many steps.  Any change to
routing, switching, the GeNoC step or the workload generator that moves a
single flit shows up here as a changed step count, peak, route length or
throughput.

Regenerate (only when a change is meant to move these numbers) with::

    PYTHONPATH=src python tests/test_simulate_exact.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib

import pytest

from repro.cli import main

FIXTURE = pathlib.Path(__file__).parent / "data" / "simulate_exact.json"

MESHES = (("4", "4", "100"), ("8", "8", "600"))
SEEDS = ("11", "7919")
HEAVY_QUEUES = (
    ["--width", "4", "--height", "4", "--messages", "400", "--buffers", "1"],
    ["--width", "8", "--height", "8", "--messages", "2400"],
)


def _argvs():
    return ([["simulate", "--width", width, "--height", height,
              "--messages", messages, "--flits", "4", "--seed", seed]
             for width, height, messages in MESHES for seed in SEEDS]
            + [["simulate", *args, "--flits", "4", "--seed", "11"]
               for args in HEAVY_QUEUES])


def run_simulate(argv):
    """Exit code and printed lines of ``repro <argv>``, minus the timing."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    lines = [line for line in out.getvalue().splitlines()
             if not line.strip().startswith("elapsed_seconds:")]
    return code, lines


def _expected():
    return {" ".join(case["argv"]): case
            for case in json.loads(FIXTURE.read_text())["cases"]}


def test_fixture_covers_every_case():
    assert sorted(_expected()) == sorted(" ".join(a) for a in _argvs())


@pytest.mark.parametrize("argv", _argvs(), ids=" ".join)
def test_simulate_output_is_pinned(argv):
    case = _expected()[" ".join(argv)]
    code, lines = run_simulate(argv)
    assert (code, lines) == (case["exit_code"], case["output"])


def test_simulate_builds_no_route_table(monkeypatch):
    """Routing each travel asks ``reachable`` only from its source, a
    local in-port, which needs no route table: ``repro simulate`` never
    builds one, and prints the pinned block all the same."""
    from repro.routing.base import RouteTable

    def refuse(self, routing):
        raise AssertionError("repro simulate built a route table")

    monkeypatch.setattr(RouteTable, "__init__", refuse)
    argv = ["simulate", "--width", "4", "--height", "4", "--messages", "100",
            "--flits", "4", "--seed", "11"]
    case = _expected()[" ".join(argv)]
    assert run_simulate(argv) == (case["exit_code"], case["output"])


if __name__ == "__main__":
    cases = []
    for argv in _argvs():
        code, lines = run_simulate(argv)
        cases.append({"argv": argv, "exit_code": code, "output": lines})
    FIXTURE.write_text(json.dumps({"cases": cases}, indent=2) + "\n")
    print(f"wrote {len(cases)} cases to {FIXTURE}")
