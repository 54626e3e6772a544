"""Command-line interface to the reproduction.

Usage (after ``pip install -e .``)::

    python -m repro verify --width 4 --height 4
    python -m repro simulate --width 4 --height 4 --messages 32 --flits 4
    python -m repro table1 --width 4 --height 4
    python -m repro depgraph --width 2 --height 2 --dot fig3.dot
    python -m repro deadlock --design clockwise-ring --size 4
    python -m repro scenarios list
    python -m repro scenarios expand "mesh:2..4x2..4, routing=[xy,yx]"
    python -m repro batch --mesh-sizes 3 4 --ring-sizes 4 --jobs 4
    python -m repro batch --matrix "vc-mesh:3x3, vcs=1..4" --shard 0/2
    python -m repro batch --matrix "mesh:3x3, routing=[west_first], faults=0..2, seed=0..4"
    python -m repro fuzz --seeds 200 --max-size 3x3
    python -m repro batch --matrix "mesh:3x3, routing=[xy]" --trace run.jsonl
    python -m repro trace summary run.jsonl --json
    python -m repro batch --matrix "mesh:4x4, routing=[xy,yx]" --store .repro-store
    python -m repro store stats .repro-store --json -

Each sub-command drives one part of the library's public API; the examples in
``examples/`` show the same flows as scripts.  Each sub-command imports
what it runs when it runs, so ``import repro.cli`` loads no engine code
and a ``repro batch`` replayed from its ``--store`` builds nothing.  The ``batch`` command is the
portfolio driver (:mod:`repro.core.portfolio`): it decides topology x routing
x switching scenarios by dependency-graph cycle search, and with
``--cross-check`` re-derives every verdict on one Kahn-peeling session per
topology.  For programmatic use, see
:class:`repro.core.deadlock.DeadlockQuerySession` (grow a dependency-edge
universe, then query edge subsets of it).
"""

from __future__ import annotations

import argparse
import sys


def _add_mesh_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--width", type=int, default=4,
                        help="mesh width (default 4)")
    parser.add_argument("--height", type=int, default=4,
                        help="mesh height (default 4)")
    parser.add_argument("--buffers", type=int, default=2,
                        help="1-flit buffers per port (default 2)")


def _check_mesh_arguments(args: argparse.Namespace,
                          sends_messages: bool = False) -> None:
    """Reject ``--width/--height/--buffers`` values no mesh is built from.

    Commands that send messages also need a second node to send to.
    """
    if args.width < 1 or args.height < 1:
        raise SystemExit("--width and --height must be at least 1")
    if sends_messages and args.width * args.height < 2:
        raise SystemExit(f"{args.command} needs at least 2 nodes: a 1x1 "
                         f"mesh has no destination to send to")
    if args.buffers < 1:
        raise SystemExit("--buffers must be at least 1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Formal Specification of Networks-on-"
                    "Chips: Deadlock and Evacuation' (DATE 2010)")
    commands = parser.add_subparsers(dest="command", required=True)

    verify = commands.add_parser(
        "verify", help="discharge (C-1)..(C-5) and conclude the theorems")
    _add_mesh_arguments(verify)

    simulate = commands.add_parser(
        "simulate", help="run GeNoC2D on a random workload")
    _add_mesh_arguments(simulate)
    simulate.add_argument("--messages", type=int, default=32)
    simulate.add_argument("--flits", type=int, default=4)
    simulate.add_argument("--seed", type=int, default=2010)

    table1 = commands.add_parser(
        "table1", help="print the Table I (verification effort) analogue")
    _add_mesh_arguments(table1)

    depgraph = commands.add_parser(
        "depgraph", help="print Fig. 3 statistics / export the graph as DOT "
                         "(VC-coloured channel graph with --vcs)")
    _add_mesh_arguments(depgraph)
    depgraph.add_argument("--dot", type=str, default=None,
                          help="write a Graphviz DOT file to this path")
    depgraph.add_argument("--vcs", type=int, default=0,
                          help="virtual channels: export the (port, vc) "
                               "channel graph of the escape-routing relation "
                               "instead of Exy_dep (default: 0 = port graph)")

    deadlock = commands.add_parser(
        "deadlock",
        help="demonstrate Theorem 1 on a deadlock-prone design, or its "
             "virtual-channel repair with --vcs (incl. Kahn-session "
             "escape analysis)")
    deadlock.add_argument("--design",
                          choices=["clockwise-ring", "zigzag-mesh",
                                   "adaptive-mesh"],
                          default=None,
                          help="defaults to clockwise-ring, or adaptive-mesh "
                               "when --vcs is given")
    deadlock.add_argument("--size", type=int, default=None,
                          help="design size (default: 4 for rings, 3 for "
                               "meshes)")
    deadlock.add_argument("--vcs", type=int, default=None,
                          help="virtual channels per port: with >= 2 the "
                               "deadlock-prone design is re-verified at VC "
                               "granularity with an escape class (default: "
                               "1, or 2 for --design adaptive-mesh, which "
                               "needs >= 2)")
    deadlock.add_argument("--escape", choices=["xy", "dateline"],
                          default=None,
                          help="escape class style: xy (mesh) or dateline "
                               "(ring/torus); defaults to the design's "
                               "natural style")

    scenarios = commands.add_parser(
        "scenarios",
        help="the declarative scenario-spec layer: list registered builder "
             "kinds, expand scenario matrices")
    scenarios_commands = scenarios.add_subparsers(dest="scenarios_command",
                                                  required=True)
    scenarios_commands.add_parser(
        "list", help="list the registered scenario kinds and their "
                     "parameter spaces")
    expand = scenarios_commands.add_parser(
        "expand", help="expand a scenario matrix into its ordered spec list")
    expand.add_argument("matrix", nargs="+", metavar="EXPR",
                        help="matrix expression(s), e.g. "
                             "'mesh:2..4x2..4, routing=[xy,yx]; "
                             "vc-mesh:3x3, vcs=1..4'")
    expand.add_argument("--json", action="store_true",
                        help="print the expanded spec dicts as a JSON array")

    batch = commands.add_parser(
        "batch",
        help="portfolio driver: decide topology x routing x switching "
             "scenarios by dependency-graph cycle search")
    batch.add_argument("--matrix", type=str, nargs="+", default=None,
                       metavar="EXPR",
                       help="build the sweep from a scenario matrix "
                            "(see 'repro scenarios expand'); replaces the "
                            "--mesh-sizes/--ring-sizes/--vcs/--buffers "
                            "construction -- set buffers per term via "
                            "'buffers=N' in the matrix")
    batch.add_argument("--shard", type=str, default=None, metavar="I/N",
                       help="run only the I-th of N group-stable partitions "
                            "of the sweep (e.g. 0/2); shards never split a "
                            "session group and their union is the unsharded "
                            "run")
    batch.add_argument("--shard-balance", type=str, default="hash",
                       choices=["hash", "weighted"],
                       help="group-to-shard assignment: 'hash' (CRC-32, "
                            "cost-oblivious) or 'weighted' (LPT over a "
                            "deterministic port-count cost model, evening "
                            "out shard wall times; default: hash)")
    batch.add_argument("--mesh-sizes", type=int, nargs="*", default=[3, 4],
                       help="square mesh sizes to sweep (default: 3 4)")
    batch.add_argument("--ring-sizes", type=int, nargs="*", default=[4],
                       help="ring sizes to sweep (default: 4)")
    batch.add_argument("--buffers", type=int, default=None,
                       help="1-flit buffers per port (default 2); "
                            "incompatible with --matrix, where each term "
                            "sets its own 'buffers=N'")
    batch.add_argument("--vcs", type=int, nargs="*", default=[],
                       help="also sweep virtual-channel escape scenarios at "
                            "these VC counts (e.g. --vcs 1 2 4)")
    batch.add_argument("--vc-mesh-sizes", type=int, nargs="*", default=None,
                       help="mesh sizes for the VC escape scenarios; "
                            "requires --vcs (default: 3)")
    batch.add_argument("--torus-sizes", type=int, nargs="*", default=None,
                       help="torus sizes for the VC escape scenarios; "
                            "requires --vcs (default: none)")
    batch.add_argument("--cross-check", action="store_true",
                       help="re-derive every verdict and escape set on a "
                            "Kahn-peeling session per group (disagreement = "
                            "'error' verdict); adds peel counts and trace "
                            "events")
    batch.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes; scenario groups are "
                            "scheduled group-affine across them and the "
                            "verdicts are identical to --jobs 1 "
                            "(0 = one per core; default 1)")
    batch.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-group time budget; a group exceeding it "
                            "yields deterministic 'timeout' verdicts for "
                            "its unfinished scenarios instead of hanging "
                            "the sweep")
    batch.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="whole-run wall-clock budget; groups not "
                            "finished when it expires yield 'timeout' "
                            "verdicts")
    batch.add_argument("--max-retries", type=int, default=2, metavar="N",
                       help="worker-crash retries before the run degrades "
                            "to in-process serial execution (default: 2)")
    batch.add_argument("--store", type=str, default=None, metavar="DIR",
                       help="persistent content-addressed verdict store: "
                            "groups already proved there (same engine "
                            "fingerprint, run parameters, spec hashes) are "
                            "replayed without being decided again; freshly "
                            "decided groups are durably recorded as they "
                            "complete, so rerunning an interrupted sweep "
                            "with the same DIR resumes it (use a fresh DIR "
                            "for a run-local store)")
    batch.add_argument("--store-readonly", action="store_true",
                       help="consult the --store but never write to it "
                            "(e.g. a shared cache this runner must not "
                            "mutate)")
    batch.add_argument("--json", type=str, default=None, metavar="PATH",
                       help="write the machine-readable report "
                            "(scenarios, verdicts, solver stats) to PATH")
    batch.add_argument("--trace", type=str, default=None, metavar="PATH",
                       help="record a structured JSONL event trace of the "
                            "run to PATH (portfolio events, plus session "
                            "events under --cross-check; analyse "
                            "with 'repro trace'); requires --jobs 1")

    fuzz = commands.add_parser(
        "fuzz",
        help="fuzz randomized topologies (faults, turn models, VC escapes) "
             "and cross-validate the Kahn session, explicit, brute-force "
             "and simulation verdicts against each other")
    fuzz.add_argument("--seeds", type=int, default=200, metavar="N",
                      help="number of seeded random instances (default 200)")
    fuzz.add_argument("--max-size", type=str, default="3x3", metavar="WxH",
                      help="largest mesh/torus dimensions to draw "
                           "(default 3x3)")
    fuzz.add_argument("--campaign-seed", type=int, default=2010,
                      help="campaign seed; instance i of a seed is always "
                           "the same spec (default 2010)")
    fuzz.add_argument("--no-brute", action="store_true",
                      help="skip the brute-force self-reachability decider")
    fuzz.add_argument("--no-sim", action="store_true",
                      help="skip the GeNoC simulation cross-validation")
    fuzz.add_argument("--quiet", action="store_true",
                      help="suppress per-instance progress lines")
    fuzz.add_argument("--json", type=str, default=None, metavar="PATH",
                      help="write the machine-readable campaign report to "
                           "PATH")

    store = commands.add_parser(
        "store",
        help="inspect a persistent verdict store directory "
             "(see 'repro batch --store')")
    store_commands = store.add_subparsers(dest="store_command",
                                          required=True)
    store_stats = store_commands.add_parser(
        "stats", help="offline inventory: record/damage/quarantine counts "
                      "per engine fingerprint (checksum-verifies every "
                      "record; read-only)")
    store_stats.add_argument("store_dir", metavar="DIR",
                             help="the store directory to scan")
    store_stats.add_argument("--json", type=str, default=None,
                             metavar="PATH",
                             help="write the stats JSON to PATH "
                                  "('-' for stdout)")

    trace = commands.add_parser(
        "trace",
        help="offline analysis of a recorded JSONL event trace "
             "(see 'repro batch --trace')")
    trace_commands = trace.add_subparsers(dest="trace_command",
                                          required=True)
    summary = trace_commands.add_parser(
        "summary", help="whole-run breakdown: event counts, per-scenario "
                        "share of solves, per-group reconciliation")
    summary.add_argument("trace_file", metavar="TRACE",
                         help="JSONL trace file to analyse")
    summary.add_argument("--json", action="store_true",
                         help="print the analysis as JSON instead of a "
                              "table")

    return parser


# ---------------------------------------------------------------------------
# Sub-command implementations
# ---------------------------------------------------------------------------

def build_hermes_instance(width: int, height: int, **options):
    """The HERMES mesh the mesh sub-commands run on (see
    :func:`repro.hermes.instantiation.build_hermes_instance`).

    A module attribute, so the build of ``repro simulate`` can be timed
    from outside (``perfbench/spans.py`` wraps it); importing inside keeps
    the instantiation off every other sub-command's path.
    """
    from repro.hermes.instantiation import build_hermes_instance as build

    return build(width, height, **options)


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.core.pipeline import verify_instance
    from repro.simulation.workloads import standard_suite

    _check_mesh_arguments(args, sends_messages=True)
    instance = build_hermes_instance(args.width, args.height,
                                     buffer_capacity=args.buffers)
    workloads = [list(spec.travels)
                 for spec in standard_suite(instance, num_flits=3)[:3]]
    report = verify_instance(instance, workloads)
    print(report.summary())
    return 0 if report.verified else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.simulation.simulator import Simulator
    from repro.simulation.workloads import uniform_random_traffic

    _check_mesh_arguments(args, sends_messages=True)
    if args.flits < 1:
        raise SystemExit("--flits must be at least 1")
    if args.messages < 0:
        raise SystemExit("--messages must be >= 0")
    instance = build_hermes_instance(args.width, args.height,
                                     buffer_capacity=args.buffers)
    workload = uniform_random_traffic(instance, num_messages=args.messages,
                                      num_flits=args.flits, seed=args.seed)
    result = Simulator(instance).run(workload)
    print(result.summary())
    for key, value in result.metrics.as_dict().items():
        print(f"  {key}: {value}")
    print(f"  CorrThm: {'holds' if result.correctness_ok else 'VIOLATED'}")
    print(f"  EvacThm: {'holds' if result.evacuation_ok else 'VIOLATED'}")
    return 0 if result.genoc_result.evacuated else 1


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.reporting.effort import build_effort_table

    _check_mesh_arguments(args)
    table = build_effort_table(args.width, args.height,
                               buffer_capacity=args.buffers)
    print(table.formatted())
    return 0


def _certificate(search) -> str:
    """The certificate the checker accepted for a cycle search."""
    return "numbering" if search.acyclic else "cycle"


def _cmd_depgraph(args: argparse.Namespace) -> int:
    from repro.checking.graphs import find_cycle_dfs
    from repro.core.dependency import graph_statistics
    from repro.network.mesh import Mesh2D

    _check_mesh_arguments(args)
    if args.vcs < 0:
        raise SystemExit("--vcs must be >= 0")
    mesh = Mesh2D(args.width, args.height)
    if args.vcs > 0:
        from repro.core.dependency import (
            channel_dependency_graph,
            class_subgraph,
        )
        from repro.routing.escape import mesh_escape_routing

        relation = mesh_escape_routing(mesh, num_vcs=args.vcs)
        graph = channel_dependency_graph(relation)
        escape = class_subgraph(graph, relation.escape_vcs)
        print(f"channel dependency graph of a {args.width}x{args.height} "
              f"mesh with {args.vcs} VCs ({relation.name()}):")
        for key, value in graph_statistics(graph).items():
            print(f"  {key}: {value}")
        full = find_cycle_dfs(graph)
        escape_search = find_cycle_dfs(escape)
        print(f"  full graph acyclic  : {full.acyclic}")
        print(f"  escape class acyclic: {escape_search.acyclic} "
              f"({escape.edge_count} escape edges)")
        print(f"  certificate: {_certificate(full)} (full graph), "
              f"{_certificate(escape_search)} (escape class), checked on "
              f"{graph.edge_count} + {escape.edge_count} edges")
        if args.dot:
            from repro.reporting.dot import write_dot

            write_dot(graph, args.dot,
                      title=f"channel_dep {args.width}x{args.height} "
                            f"{args.vcs}vc",
                      escape_vcs=relation.escape_vcs)
            print(f"  DOT written to {args.dot}")
        return 0 if escape_search.acyclic else 1

    from repro.hermes.dependency import build_exy_graph

    graph = build_exy_graph(mesh)
    print(f"Exy_dep of a {args.width}x{args.height} mesh:")
    for key, value in graph_statistics(graph).items():
        print(f"  {key}: {value}")
    search = find_cycle_dfs(graph)
    print(f"  acyclic: {search.acyclic}")
    print(f"  certificate: {_certificate(search)}, checked on "
          f"{graph.edge_count} edges")
    if args.dot:
        from repro.reporting.dot import write_dot

        write_dot(graph, args.dot,
                  title=f"Exy_dep {args.width}x{args.height}")
        print(f"  DOT written to {args.dot}")
    return 0 if search.acyclic else 1


def _build_vc_relation(design: str, size: int, escape: str | None,
                       num_vcs: int):
    """The escape-channel relation demonstrating a design's VC repair."""
    from repro.routing.escape import (
        EscapeChannelRouting,
        mesh_escape_routing,
        ring_escape_routing,
    )

    if design == "clockwise-ring":
        if escape == "xy":
            raise SystemExit(
                "the ring designs use the dateline escape style; "
                "drop --escape or pass --escape dateline")
        from repro.network.ring import Ring
        from repro.routing.ring import ClockwiseRingRouting

        # The dateline pair repairs the *clockwise* routing itself -- the
        # same function the non-VC demo exhibits the cycle for.
        ring = Ring(size, bidirectional=True)
        return ring_escape_routing(ring, num_vcs=num_vcs,
                                   base_routing=ClockwiseRingRouting(ring))
    if escape == "dateline":
        raise SystemExit(
            "the mesh designs use the xy escape style; "
            "drop --escape or pass --escape xy")
    from repro.network.mesh import Mesh2D
    from repro.network.vc import VCTopology

    mesh = Mesh2D(size, size)
    if design == "zigzag-mesh":
        from repro.routing.adaptive import ZigZagRouting
        from repro.routing.xy import XYRouting

        return EscapeChannelRouting(
            VCTopology(mesh, num_vcs),
            escape_routing=XYRouting(mesh),
            adaptive_routing=ZigZagRouting(mesh),
            escape_vc_count=1,
            style="xy")
    return mesh_escape_routing(mesh, num_vcs=num_vcs)


def _cmd_deadlock_vc(design: str, args: argparse.Namespace,
                     num_vcs: int) -> int:
    """The VC repair demo: the single-VC design, then with an escape class."""
    from repro.core.deadlock import DeadlockQuerySession
    from repro.core.dependency import channel_dependency_graph, class_edges
    from repro.core.obligations import check_v1_escape_coverage
    from repro.core.theorems import check_deadlock_freedom_vc

    size = args.size
    if size is None:
        size = 3 if design.endswith("-mesh") else 4
    baseline = _build_vc_relation(design, size, args.escape, num_vcs=1)
    base_thm = check_deadlock_freedom_vc(baseline)
    print(f"single-VC baseline {baseline.name()}: "
          f"{'free' if base_thm.holds else 'DEADLOCK-PRONE'}")
    for counterexample in base_thm.counterexamples[:1]:
        print(f"  {counterexample}")

    relation = _build_vc_relation(design, size, args.escape,
                                  num_vcs=num_vcs)
    print(f"\nVC repair {relation.name()}: escape class "
          f"{list(relation.escape_vcs)}, adaptive class "
          f"{list(relation.adaptive_vcs)}")
    # Enumerate the channel graph and the (V-1) coverage once; both the
    # explicit check and the Kahn session consume them.
    graph = channel_dependency_graph(relation)
    coverage = check_v1_escape_coverage(relation)
    explicit = check_deadlock_freedom_vc(relation, graph=graph,
                                         coverage=coverage)
    # The independent Kahn reference: (V-2) as one peel of the
    # escape-class edges, and on failure its single-edge repairs.
    session = DeadlockQuerySession(graph, name=relation.name())
    escape_class = class_edges(graph, relation.escape_vcs)
    peeled = coverage.holds and session.is_deadlock_free_edges(escape_class)
    fixes = [] if peeled else session.escape_edges_for(escape_class)
    if explicit.holds != peeled:
        raise AssertionError(
            f"explicit and Kahn VC verdicts disagree: "
            f"{explicit.holds} vs {peeled}")
    status = "holds" if explicit.holds else "VIOLATED"
    print(f"  {explicit.name}: {status} ({explicit.checks} checks, "
          f"{explicit.elapsed_seconds:.3f}s)")
    for counterexample in explicit.counterexamples[:2]:
        print(f"    {counterexample}")
    peels = session.queries
    print(f"  Kahn session: {status} ({peels} peel"
          f"{'' if peels == 1 else 's'} over {session.edge_count} "
          f"channel edges)")
    for source, target in fixes[:8]:
        print(f"    escape fix: remove {source} -> {target}")
    if explicit.holds and base_thm.holds:
        print(f"\n=> the single-VC baseline is already deadlock-free; "
              f"it stays free with {num_vcs} VCs.")
    elif explicit.holds:
        print(f"\n=> the deadlock-prone design is proved deadlock-free "
              f"with {num_vcs} VCs ({len(relation.escape_vcs)} escape), "
              f"by both the explicit checker and the Kahn session.")
    return 0 if explicit.holds else 1


def _cmd_deadlock(args: argparse.Namespace) -> int:
    from repro.checking.bmc import explore_configuration_space
    from repro.checking.graphs import find_cycle_dfs
    from repro.core.dependency import routing_dependency_graph
    from repro.core.obligations import check_c3_routing_induced
    from repro.core.witness import verify_witness_roundtrip

    design = args.design or ("adaptive-mesh" if (args.vcs or 1) > 1
                             else "clockwise-ring")
    num_vcs = args.vcs
    if num_vcs is None:
        # The adaptive mesh only makes sense as the VC repair demo, so it
        # defaults to the repaired configuration.
        num_vcs = 2 if design == "adaptive-mesh" else 1
    if num_vcs < 1:
        raise SystemExit("--vcs must be at least 1")
    if design == "adaptive-mesh" and num_vcs < 2:
        raise SystemExit(
            "--design adaptive-mesh is the virtual-channel repair demo: "
            "--vcs must be at least 2")
    min_size = 2 if design == "clockwise-ring" else 1
    if args.size is not None and args.size < min_size:
        raise SystemExit(f"--size must be at least {min_size} for {design}")
    if num_vcs > 1:
        return _cmd_deadlock_vc(design, args, num_vcs)
    if args.escape is not None:
        raise SystemExit(
            "--escape only applies to the virtual-channel demo; "
            "add --vcs 2 (or --design adaptive-mesh)")

    size = args.size if args.size is not None else 4
    if design == "clockwise-ring":
        from repro.ringnoc.instantiation import (
            build_clockwise_ring_instance,
            ring_witness_destination,
        )

        instance = build_clockwise_ring_instance(size)
        witness_fn = ring_witness_destination(instance.topology)
        travels = [instance.make_travel((i, 0), ((i + 2) % size, 0),
                                        num_flits=3) for i in range(size)]
    else:
        from repro.hermes.ports import witness_destination
        from repro.network.mesh import Mesh2D
        from repro.routing.adaptive import ZigZagRouting

        mesh = Mesh2D(size, size)
        instance = build_hermes_instance(size, size,
                                         routing=ZigZagRouting(mesh))

        def witness_fn(source, target):
            return witness_destination(source, target, mesh)

        travels = []

    # One enumeration of the dependency graph serves (C-3), the cycle
    # and the Kahn session.
    graph = routing_dependency_graph(instance.routing)
    c3 = check_c3_routing_induced(instance.routing, graph=graph)
    print(f"(C-3) for {instance.routing.name()}: "
          f"{'holds' if c3.holds else 'VIOLATED'}")
    if c3.holds:
        print("design is deadlock-free; nothing to demonstrate")
        return 0
    cycle = find_cycle_dfs(graph).cycle
    print("dependency cycle: " + " -> ".join(str(p) for p in cycle))

    # Escape analysis on the Kahn session: a cycle, then one peel per
    # cycle edge removal.
    from repro.core.deadlock import DeadlockQuerySession

    session = DeadlockQuerySession(graph)
    escapes = session.escape_edges_for(session.edges)
    if escapes:
        print("escape fixes (single-edge removals restoring freedom):")
        for source, target in escapes:
            print(f"  remove {source} -> {target}")
    else:
        print("no single dependency-edge removal restores deadlock freedom")
    roundtrip = verify_witness_roundtrip(cycle, instance.routing,
                                         instance.switching, witness_fn,
                                         capacity=1)
    print(f"constructed configuration is a deadlock: {roundtrip.is_deadlock}")
    if travels:
        search = explore_configuration_space(instance, travels, capacity=1)
        print(f"state-space search: {search}")
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.core.spec import expand_matrix, spec_registry
    from repro.reporting.tables import format_table

    if args.scenarios_command == "list":
        rows = []
        for entry in spec_registry().entries():
            dims = "WxH" if entry.dim_count == 2 else "N"
            rows.append([
                entry.kind, dims,
                ", ".join(entry.routings) or "(fixed)",
                ", ".join(entry.switchings) or "(fixed)",
                "1..n" if entry.supports_vcs else "1",
                entry.escape_style or "-",
                entry.description,
            ])
        print(format_table(
            ["kind", "dims", "routings", "switchings", "vcs", "escape",
             "description"], rows))
        return 0

    from repro.core.errors import SpecificationError

    try:
        specs = expand_matrix(args.matrix)
    except SpecificationError as error:
        raise SystemExit(f"invalid scenario matrix: {error}")
    if args.json:
        import json

        print(json.dumps([spec.to_dict() for spec in specs], indent=2))
    else:
        rows = [[index, spec.scenario_name(), spec.group_key(), spec.kind,
                 spec.dims_text(), spec.routing or "-",
                 spec.switching or "-", spec.num_vcs, spec.buffers]
                for index, spec in enumerate(specs)]
        print(format_table(
            ["#", "scenario", "group", "kind", "dims", "routing",
             "switching", "vcs", "buffers"], rows))
        groups = {spec.group_key() for spec in specs}
        print(f"{len(specs)} scenarios in {len(groups)} session groups")
    return 0


def _parse_shard(text: str | None):
    """``"0/2"`` -> ``(0, 2)`` (with friendly CLI errors)."""
    if text is None:
        return None
    import re

    match = re.fullmatch(r"(\d+)/(\d+)", text.strip())
    if not match:
        raise SystemExit(f"--shard expects I/N (e.g. 0/2), got {text!r}")
    index, count = int(match.group(1)), int(match.group(2))
    if count < 1 or index >= count:
        raise SystemExit(f"--shard {text!r} out of range: need 0 <= I < N")
    return (index, count)


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.core.errors import SpecificationError
    from repro.core.portfolio import (
        run_portfolio,
        scenarios_from_specs,
        standard_portfolio,
        vc_escape_portfolio,
    )

    if args.matrix and args.buffers is not None:
        raise SystemExit(
            "--buffers does not apply to --matrix sweeps; set "
            "'buffers=N' inside the matrix term instead")
    for flag, value in (("--vc-mesh-sizes", args.vc_mesh_sizes),
                        ("--torus-sizes", args.torus_sizes)):
        if value is not None and not args.vcs:
            raise SystemExit(f"{flag} requires --vcs: the VC escape "
                             f"sweep runs only at the given VC counts")
    try:
        if args.matrix:
            from repro.core.spec import expand_matrix

            scenarios = scenarios_from_specs(expand_matrix(args.matrix))
        else:
            buffers = 2 if args.buffers is None else args.buffers
            scenarios = standard_portfolio(mesh_sizes=args.mesh_sizes,
                                           ring_sizes=args.ring_sizes,
                                           buffer_capacity=buffers)
            if args.vcs:
                if any(count < 1 for count in args.vcs):
                    raise SystemExit("--vcs counts must be at least 1")
                scenarios += vc_escape_portfolio(
                    mesh_sizes=(3,) if args.vc_mesh_sizes is None
                    else args.vc_mesh_sizes,
                    torus_sizes=args.torus_sizes or (), vc_counts=args.vcs,
                    buffer_capacity=buffers)
    except SpecificationError as error:
        raise SystemExit(f"invalid scenario matrix: {error}")
    shard = _parse_shard(args.shard)
    if args.max_retries < 0:
        raise SystemExit("--max-retries must be >= 0")
    if args.jobs < 0:
        raise SystemExit("--jobs must be >= 0 (0 = one per core)")
    for flag, value in (("--timeout", args.timeout),
                        ("--deadline", args.deadline)):
        if value is not None and value <= 0:
            raise SystemExit(f"{flag} must be > 0 seconds")
    if args.store_readonly and not args.store:
        raise SystemExit("--store-readonly requires --store DIR")
    robustness = dict(group_timeout=args.timeout, run_deadline=args.deadline,
                      max_retries=args.max_retries,
                      store=args.store, store_readonly=args.store_readonly)
    try:
        if args.trace is not None:
            if args.jobs != 1:
                raise SystemExit(
                    "--trace requires a serial run: use --jobs 1")
            from repro.core.trace import TraceWriter

            with TraceWriter(args.trace, label="repro batch") as trace:
                report = run_portfolio(scenarios,
                                       cross_check=args.cross_check,
                                       jobs=1, shard=shard,
                                       shard_balance=args.shard_balance,
                                       trace=trace, **robustness)
            print(f"trace written to {args.trace} "
                  f"(analyse with 'repro trace summary {args.trace}')")
        else:
            report = run_portfolio(scenarios, cross_check=args.cross_check,
                                   jobs=args.jobs, shard=shard,
                                   shard_balance=args.shard_balance,
                                   **robustness)
    except KeyboardInterrupt:
        return _batch_interrupted(args, scenarios, shard)
    print(report.formatted())
    print(report.summary())
    if shard is not None:
        print(f"  shard {shard[0]}/{shard[1]}: {len(report.verdicts)} of "
              f"{len(scenarios)} scenarios (group-stable partition)")
    if report.jobs > 1:
        print(f"  scheduled across {report.jobs} workers (group-affine); "
              f"verdicts identical to --jobs 1")
    for group, stats in report.session_stats.items():
        print(f"  session {group}: {stats['solves']} Kahn peels")
    print(f"  instances built: {report.cache_stats.get('misses', 0)}")
    recovery = report.recovery
    if recovery.get("crash_retries"):
        print(f"  recovered from {recovery['crash_retries']} worker "
              f"crash(es)"
              + (" -- degraded to serial execution"
                 if recovery.get("degraded_serial") else ""))
    store_stats = report.store_stats
    if store_stats:
        line = (f"  verdict store [{store_stats.get('mode')}]: "
                f"{store_stats.get('hits', 0)} hits, "
                f"{store_stats.get('misses', 0)} misses, "
                f"{store_stats.get('writes', 0)} writes")
        if store_stats.get("quarantined"):
            line += (f", {store_stats['quarantined']} corrupt record(s) "
                     f"quarantined + recomputed")
        if store_stats.get("evicted"):
            line += f", {store_stats['evicted']} stale record(s) evicted"
        print(line)
        if store_stats.get("degraded_reason"):
            print(f"    (degraded: {store_stats['degraded_reason']})")
        replayed_store = store_stats.get("replayed_groups") or []
        if replayed_store:
            print(f"    replayed {len(replayed_store)} group(s) from the "
                  f"store: {', '.join(replayed_store)}")
    if args.json:
        report.write_json(args.json)
        print(f"JSON report written to {args.json}")
    return 1 if report.failure_count else 0


def _batch_interrupted(args: argparse.Namespace, scenarios,
                       shard) -> int:
    """SIGINT epilogue for ``repro batch``: salvage the store, exit 130.

    ``run_portfolio`` records every group in the store as it completes,
    so the groups finished before the interrupt are on disk.  They are
    read back with the lookups a rerun replays them through.
    """
    print("\ninterrupted", flush=True)
    if not args.store:
        print("the sweep was not resumable: run with --store DIR to keep "
              "completed groups across interruptions")
        return 130
    from repro.core.portfolio import PortfolioReport, stored_groups

    replayed = stored_groups(scenarios, args.store,
                             cross_check=args.cross_check, shard=shard,
                             shard_balance=args.shard_balance)
    verdicts = sorted((verdict for _, pairs, _, _ in replayed.values()
                       for _, verdict in pairs),
                      key=lambda verdict: verdict.index)
    if verdicts:
        partial = PortfolioReport(verdicts=verdicts, elapsed_seconds=0.0)
        print(f"partial results ({len(replayed)} completed group(s) "
              f"recorded in {args.store}):")
        print(partial.formatted())
    else:
        print(f"no completed groups recorded in {args.store} yet")
    print(f"rerun with --store {args.store} to resume")
    return 130


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import json

    from repro.core.errors import SpecificationError
    from repro.core.fuzz import run_fuzz_campaign

    try:
        width_text, height_text = args.max_size.lower().split("x")
        max_size = (int(width_text), int(height_text))
    except ValueError:
        raise SystemExit(f"--max-size must look like '3x3', "
                         f"got {args.max_size!r}")
    if args.seeds < 1:
        raise SystemExit("--seeds must be at least 1")
    progress = None if args.quiet else (lambda line: print(line))
    try:
        report = run_fuzz_campaign(count=args.seeds, max_size=max_size,
                                   campaign_seed=args.campaign_seed,
                                   brute_force=not args.no_brute,
                                   simulate=not args.no_sim,
                                   progress=progress)
    except SpecificationError as error:
        raise SystemExit(f"invalid --max-size {args.max_size!r}: {error}")
    print(report.format_summary())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_json_dict(), handle, indent=2, sort_keys=True)
        print(f"JSON report written to {args.json}")
    return 0 if report.ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.core import trace_analysis
    from repro.core.trace import load_trace, validate_trace

    try:
        events = load_trace(args.trace_file)
    except (OSError, ValueError) as error:
        raise SystemExit(f"cannot read trace {args.trace_file!r}: {error}")
    errors = validate_trace(events)
    if errors:
        for error in errors[:10]:
            print(f"invalid trace: {error}", file=sys.stderr)
        raise SystemExit(f"trace {args.trace_file!r} failed schema "
                         f"validation ({len(errors)} violation(s))")

    analysis = trace_analysis.analyze_summary(events)
    if args.json:
        print(json.dumps(analysis, indent=2, sort_keys=False))
    else:
        print(trace_analysis.format_summary(analysis))
    return 0 if analysis["reconciled"] else 1


def _cmd_store(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.core.store import scan_store

    if not os.path.isdir(args.store_dir):
        raise SystemExit(f"no such store directory: {args.store_dir}")
    stats = scan_store(args.store_dir)
    print(f"verdict store {args.store_dir}: schema {stats['schema']}, "
          f"{stats['records']} record(s), {stats['damaged']} damaged, "
          f"{stats['quarantined']} quarantined")
    for fingerprint, count in sorted(stats["fingerprints"].items()):
        print(f"  {fingerprint}: {count} record(s)")
    if args.json:
        payload = json.dumps(stats, indent=2, sort_keys=True)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(f"stats JSON written to {args.json}")
    return 0


_COMMANDS = {
    "verify": _cmd_verify,
    "simulate": _cmd_simulate,
    "table1": _cmd_table1,
    "depgraph": _cmd_depgraph,
    "deadlock": _cmd_deadlock,
    "scenarios": _cmd_scenarios,
    "batch": _cmd_batch,
    "fuzz": _cmd_fuzz,
    "store": _cmd_store,
    "trace": _cmd_trace,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
