"""The process-wide instance cache of the verification engine.

Portfolio workers receive cheap, frozen
:class:`~repro.core.spec.ScenarioSpec` values instead of pickled
instances; :class:`InstanceCache` resolves each spec to its
:class:`~repro.core.instance.NoCInstance` once per process, so a scenario
group scheduled onto one worker constructs each distinct design exactly
once.  (Dependency graphs and (V-1) coverage need no cache: both read the
routing's :func:`~repro.routing.base.route_table`, which every routing
object computes once.)

One cache lives per process (:func:`instance_cache`).
:func:`reset_instance_cache` restores a cold cache (for measurements and
tests that need construction to start from nothing).
"""

from __future__ import annotations

from typing import Dict, Optional


class InstanceCache:
    """Spec -> instance memoisation.

    A hit is indistinguishable from a rebuild apart from the time saved;
    hit and miss counters are exported into the portfolio JSON report.
    """

    def __init__(self) -> None:
        # ScenarioSpec -> NoCInstance (specs are frozen and hashable)
        self._instances: Dict[object, object] = {}
        self.hits = 0
        self.misses = 0

    # -- bookkeeping --------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "instances": len(self._instances),
        }

    def clear(self) -> None:
        self._instances.clear()
        self.hits = 0
        self.misses = 0

    # -- spec-built instances -----------------------------------------------------
    def instance_for(self, spec):
        """The memoised :class:`~repro.core.instance.NoCInstance` of a spec.

        ``spec`` is a :class:`~repro.core.spec.ScenarioSpec` (frozen,
        hashable -- the key *is* the declarative description).  Portfolio
        workers receive cheap specs instead of pickled instances and
        resolve them here, so a scenario group scheduled onto one worker
        constructs each distinct design exactly once per process.

        The map holds its instances *strongly*: spec-backed scenarios
        deliberately keep no instance reference, so a weak entry would die
        before its first reuse.  Long-lived processes that sweep many large distinct
        designs should call :func:`reset_instance_cache` between sweeps.
        """
        instance = self._instances.get(spec)
        if instance is not None:
            self.hits += 1
            return instance
        self.misses += 1
        instance = spec.build()
        self._instances[spec] = instance
        return instance


_CACHE: Optional[InstanceCache] = None


def instance_cache() -> InstanceCache:
    """The per-process construction cache (created on first use)."""
    global _CACHE
    if _CACHE is None:
        _CACHE = InstanceCache()
    return _CACHE


def reset_instance_cache() -> InstanceCache:
    """Drop every cached construction and return the fresh, cold cache."""
    cache = instance_cache()
    cache.clear()
    return cache
