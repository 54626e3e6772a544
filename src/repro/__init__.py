"""repro: an executable reproduction of
"Formal Specification of Networks-on-Chips: Deadlock and Evacuation"
(Verbeek & Schmaltz, DATE 2010).

The package is organised as the paper is:

* :mod:`repro.core` -- the generic GeNoC framework: configurations, the
  three constituent interfaces, the interpreter, the proof obligations
  (C-1)-(C-5) and the three global theorems (correctness, deadlock freedom,
  evacuation).
* :mod:`repro.network` -- the network model substrate (ports, buffers,
  topologies).
* :mod:`repro.hermes` -- the HERMES 2D-mesh instantiation (XY routing,
  wormhole switching, the ``Exy_dep`` dependency graph, the flows proof).
* :mod:`repro.routing`, :mod:`repro.switching` -- libraries of routing
  functions and switching policies (baselines and extensions).
* :mod:`repro.checking` -- the formal-checking substrate (graph algorithms,
  a CDCL SAT solver, explicit-state model checking).
* :mod:`repro.simulation` -- workload generators, simulator and metrics.
* :mod:`repro.ringnoc` -- a second (ring) instantiation.
* :mod:`repro.reporting` -- the Table I analogue.

Every name is imported from the module that defines it; the packages
re-export nothing, so a program loads only the modules it uses.

Quickstart::

    from repro.hermes.instantiation import build_hermes_instance
    from repro.simulation.simulator import Simulator
    from repro.simulation.workloads import uniform_random_traffic

    instance = build_hermes_instance(4, 4, buffer_capacity=2)
    workload = uniform_random_traffic(instance, num_messages=32, seed=7)
    result = Simulator(instance).run(workload)
    print(result.summary())
"""

__version__ = "1.0.0"

__all__ = [
    "core",
    "network",
    "hermes",
    "routing",
    "switching",
    "checking",
    "simulation",
    "ringnoc",
    "reporting",
    "__engine_fingerprint__",
]

_engine_fingerprint_cache = None


def _compute_engine_fingerprint() -> str:
    """A content hash of the engine's own source tree.

    ``repro.__engine_fingerprint__`` keys persisted verdicts (the
    content-addressed verdict store of :mod:`repro.core.store`): a cached
    verdict is only valid for the exact engine that produced it, so *any*
    source change invalidates it.  The hash covers every ``.py`` file of the installed package in a
    fixed order -- deterministic across processes, machines and import
    order, unlike bytecode hashes or mtimes.
    """
    import hashlib
    import os

    root = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(name for name in dirnames
                             if name != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            relative = os.path.relpath(path, root).replace(os.sep, "/")
            digest.update(relative.encode("utf-8"))
            digest.update(b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
            digest.update(b"\0")
    return f"repro-{__version__}-{digest.hexdigest()[:16]}"


def __getattr__(name: str):
    # PEP 562 lazy attribute: computing the fingerprint walks the source
    # tree, so it only happens when something actually asks for it.
    if name == "__engine_fingerprint__":
        global _engine_fingerprint_cache
        if _engine_fingerprint_cache is None:
            _engine_fingerprint_cache = _compute_engine_fingerprint()
        return _engine_fingerprint_cache
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
