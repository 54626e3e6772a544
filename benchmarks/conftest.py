"""Shared fixtures and reporting helpers for the benchmark harness.

Every benchmark module regenerates one artefact of the paper's evaluation
(Table I, Fig. 1-4, and the two theorem-validation experiments) and asserts
its shape.  By default each case runs once, as with ``--benchmark-disable``:
the suite is an integration test, and timing comes from ``perfbench/``.
Timing statistics need an explicit pytest-benchmark flag::

    pytest benchmarks/ --benchmark-enable -s
    pytest benchmarks/ --benchmark-only -s

Each module prints the regenerated rows/series with ``report()``, so ``-s``
shows the tables next to the timing statistics.  The paper's Table I
values are ``repro.reporting.effort.PAPER_TABLE_I``; ``repro table1`` prints
them next to the measured ones.
"""

from __future__ import annotations

import pytest


def pytest_configure(config):
    """Run every case once unless ``--benchmark-enable`` or
    ``--benchmark-only`` asks for timing."""
    if (config.getoption("benchmark_enable", False)
            or config.getoption("benchmark_only", False)):
        return
    config.option.benchmark_disable = True
    session = getattr(config, "_benchmarksession", None)
    if session is not None:  # pytest-benchmark configured before us
        session.disabled = True


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
