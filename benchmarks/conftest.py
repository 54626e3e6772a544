"""Shared fixtures and reporting helpers for the benchmark harness.

Every benchmark module regenerates one artefact of the paper's evaluation
(Table I, Fig. 1-4, and the two theorem-validation experiments).  Besides the
pytest-benchmark timings, each module prints the regenerated rows/series with
``report()`` so that running::

    pytest benchmarks/ --benchmark-only -s

shows the tables next to the timing statistics.  EXPERIMENTS.md records the
paper-reported values next to representative measured outputs.
"""

from __future__ import annotations

import pytest


def report(title: str, text: str) -> None:
    """Print a benchmark artefact in a recognisable block."""
    bar = "=" * max(len(title), 20)
    print(f"\n{bar}\n{title}\n{bar}\n{text}\n")


@pytest.fixture(scope="session")
def hermes_3x3():
    from repro.hermes.instantiation import build_hermes_instance

    return build_hermes_instance(3, 3, buffer_capacity=2)


@pytest.fixture(scope="session")
def hermes_4x4():
    from repro.hermes.instantiation import build_hermes_instance

    return build_hermes_instance(4, 4, buffer_capacity=2)
