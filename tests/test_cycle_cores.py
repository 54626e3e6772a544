"""Cycle cores and escape edges pinned across commits.

``tests/data/cycle_cores.json`` holds, for every deadlock-prone scenario
of the sweeps below, the exact ``cycle_core`` and ``escape_edges`` lists
of its ``repro batch --json`` verdict (order included), and the list of
prone scenarios itself.  The DFS that finds a cycle depends on its root
order and successor order, so a change to how the dependency graph is
built or searched that keeps every verdict but reports a different cycle
shows up here.

The sweeps: every mesh routing token on faulty 3x3 meshes, faulty rings
under both ring routings, faulty VC tori and VC rings at 1-3 VCs (fault
seeds 0-5 each), and the ``smoke`` and ``extended-8`` matrices.

Regenerate (only when a change is meant to move a cycle) with::

    PYTHONPATH=src python tests/test_cycle_cores.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import tempfile

import pytest

from repro.cli import main
from repro.core.spec import spec_registry

FIXTURE = pathlib.Path(__file__).parent / "data" / "cycle_cores.json"


def _cases():
    mesh_tokens = ",".join(spec_registry().entry("mesh").routings)
    return {
        "mesh-3x3-faulty": ["--matrix", f"mesh:3x3, routing=[{mesh_tokens}], "
                            "faults=1..2, seed=0..5"],
        "ring-faulty": ["--matrix", "ring:5..8, routing=[chain,clockwise], "
                        "faults=1, seed=0..5"],
        "vc-torus-faulty": ["--matrix", "vc-torus:3x3, vcs=1..3, "
                            "faults=1..2, seed=0..5"],
        "vc-ring-faulty": ["--matrix", "vc-ring:5..8, vcs=1..3, faults=1, "
                           "seed=0..5"],
        "smoke": ["--mesh-sizes", "3", "4", "--ring-sizes", "4", "--vcs",
                  "1", "2", "--vc-mesh-sizes", "3", "--torus-sizes", "4"],
        "extended-8": ["--mesh-sizes", "8", "--ring-sizes", "8", "--vcs",
                       "1", "2", "4", "--vc-mesh-sizes", "8"],
    }


def prone_cores(args):
    """``{scenario: {cycle_core, escape_edges}}`` of every prone verdict."""
    with tempfile.TemporaryDirectory() as scratch:
        path = pathlib.Path(scratch) / "report.json"
        with contextlib.redirect_stdout(io.StringIO()):
            main(["batch", *args, "--json", str(path)])
        report = json.loads(path.read_text())
    return {entry["scenario"]: {"cycle_core": entry["cycle_core"],
                                "escape_edges": entry["escape_edges"]}
            for entry in report["scenarios"]
            if entry["deadlock_free"] is False}


def test_fixture_covers_every_case():
    assert sorted(json.loads(FIXTURE.read_text())) == sorted(_cases())


@pytest.mark.parametrize("case", sorted(_cases()))
def test_cycle_cores_are_pinned(case):
    expected = json.loads(FIXTURE.read_text())[case]
    actual = prone_cores(_cases()[case])
    assert sorted(actual) == sorted(expected)
    assert actual == expected


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(
        {case: prone_cores(args) for case, args in _cases().items()},
        indent=1, sort_keys=True) + "\n")
