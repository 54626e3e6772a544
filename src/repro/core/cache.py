"""The per-process count of instances built from specs.

Portfolio workers receive cheap, frozen
:class:`~repro.core.spec.ScenarioSpec` values instead of pickled
instances and build each scenario right before deciding it; nothing
keeps the instance once its verdict exists, so batch memory is bounded
by the largest scenario, not by the sweep.  No spec is resolved twice in
a batch, so nothing is memoised: :attr:`InstanceCache.misses` counts the
builds and :attr:`InstanceCache.hits` stays 0.  The report's ``cache``
block keeps that ``hits``/``misses`` shape.
"""

from __future__ import annotations


class InstanceCache:
    """Build counter: every :meth:`instance_for` call is one build."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    def instance_for(self, spec):
        """A freshly built :class:`~repro.core.instance.NoCInstance` of
        ``spec``, counted as a miss once the build succeeded."""
        instance = spec.build()
        self.misses += 1
        return instance


_CACHE = InstanceCache()


def instance_cache() -> InstanceCache:
    """The per-process build counter."""
    return _CACHE
