"""Tests for the command-line interface and the DOT export."""

import os
import subprocess
import sys

import pytest

from repro.checking.graphs import find_cycle_dfs
from repro.cli import build_parser, main
from repro.core.dependency import routing_dependency_graph
from repro.hermes.dependency import build_exy_graph
from repro.network.mesh import Mesh2D
from repro.network.ring import Ring
from repro.reporting.dot import dependency_graph_to_dot, write_dot
from repro.routing.ring import ClockwiseRingRouting


class TestDotExport:
    def test_dot_contains_all_ports_and_edges(self):
        graph = build_exy_graph(Mesh2D(2, 2))
        dot = dependency_graph_to_dot(graph)
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert dot.count("->") == graph.edge_count
        # One cluster per node.
        assert dot.count("subgraph cluster_") == 4

    def test_dot_highlights_cycle_edges(self):
        routing = ClockwiseRingRouting(Ring(4))
        graph = routing_dependency_graph(routing)
        cycle = find_cycle_dfs(graph).cycle
        dot = dependency_graph_to_dot(graph, highlight_cycle=cycle)
        assert dot.count("color=red") == len(cycle)

    def test_dot_without_flow_colours(self):
        graph = build_exy_graph(Mesh2D(2, 2))
        dot = dependency_graph_to_dot(graph, colour_by_flow=False)
        assert "fillcolor=white" in dot

    def test_write_dot(self, tmp_path):
        graph = build_exy_graph(Mesh2D(2, 2))
        path = tmp_path / "fig3.dot"
        write_dot(graph, str(path), title="fig3")
        text = path.read_text()
        assert 'digraph "fig3"' in text


class TestCLI:
    def test_parser_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_verify_command(self, capsys):
        code = main(["verify", "--width", "2", "--height", "2"])
        output = capsys.readouterr().out
        assert code == 0
        assert "VERDICT: verified" in output

    def test_simulate_command(self, capsys):
        code = main(["simulate", "--width", "3", "--height", "3",
                     "--messages", "6", "--flits", "2", "--seed", "1"])
        output = capsys.readouterr().out
        assert code == 0
        assert "evacuated" in output
        assert "CorrThm: holds" in output

    @pytest.mark.parametrize("flags, message", [
        (["--width", "0"], "--width and --height must be at least 1"),
        (["--height", "0"], "--width and --height must be at least 1"),
        (["--width", "1", "--height", "1"], "at least 2 nodes"),
        (["--flits", "0"], "--flits must be at least 1"),
        (["--buffers", "0"], "--buffers must be at least 1"),
        (["--messages", "-1"], "--messages must be >= 0"),
    ], ids=["width-zero", "height-zero", "single-node", "flits-zero",
            "buffers-zero", "messages-negative"])
    def test_simulate_rejects_invalid_arguments(self, flags, message):
        with pytest.raises(SystemExit, match=message):
            main(["simulate"] + flags)

    @pytest.mark.parametrize("argv, message", [
        (["verify", "--width", "0"], "--width and --height must be at least 1"),
        (["verify", "--width", "1", "--height", "1"], "at least 2 nodes"),
        (["verify", "--buffers", "0"], "--buffers must be at least 1"),
        (["table1", "--width", "0"], "--width and --height must be at least 1"),
        (["table1", "--buffers", "0"], "--buffers must be at least 1"),
        (["depgraph", "--width", "0"],
         "--width and --height must be at least 1"),
        (["depgraph", "--vcs", "-1"], "--vcs must be >= 0"),
        (["deadlock", "--size", "0"], "--size must be at least 2"),
        (["deadlock", "--design", "zigzag-mesh", "--size", "0"],
         "--size must be at least 1"),
        (["deadlock", "--vcs", "2", "--size", "0"],
         "--size must be at least 1"),
        (["deadlock", "--design", "adaptive-mesh", "--vcs", "1"],
         "--vcs must be at least 2"),
    ], ids=["verify-width-zero", "verify-single-node", "verify-buffers-zero",
            "table1-width-zero", "table1-buffers-zero", "depgraph-width-zero",
            "depgraph-vcs-negative", "deadlock-ring-size-zero",
            "deadlock-zigzag-size-zero", "deadlock-vc-size-zero",
            "deadlock-adaptive-one-vc"])
    def test_rejects_invalid_sizes(self, argv, message):
        with pytest.raises(SystemExit, match=message):
            main(argv)

    def test_table1_command(self, capsys):
        code = main(["table1", "--width", "2", "--height", "2"])
        output = capsys.readouterr().out
        assert code == 0
        assert "Verification effort" in output
        assert "Overall" in output

    def test_depgraph_command_with_dot_export(self, capsys, tmp_path):
        dot_path = tmp_path / "graph.dot"
        code = main(["depgraph", "--width", "2", "--height", "2",
                     "--dot", str(dot_path)])
        output = capsys.readouterr().out
        assert code == 0
        assert "acyclic: True" in output
        assert dot_path.exists()

    def test_deadlock_command_on_ring(self, capsys):
        code = main(["deadlock", "--design", "clockwise-ring", "--size", "4"])
        output = capsys.readouterr().out
        assert code == 0
        assert "VIOLATED" in output
        assert "deadlock" in output

    def test_deadlock_command_on_zigzag(self, capsys):
        code = main(["deadlock", "--design", "zigzag-mesh", "--size", "3"])
        output = capsys.readouterr().out
        assert code == 0
        assert "constructed configuration is a deadlock: True" in output

    @pytest.mark.parametrize("argv", [
        ["--design", "zigzag-mesh", "--size", "2", "--vcs", "2"],
        ["--design", "adaptive-mesh", "--size", "1"],
    ], ids=["zigzag-2x2", "adaptive-1x1"])
    def test_deadlock_vc_demo_on_a_free_baseline_claims_no_repair(
            self, argv, capsys):
        code = main(["deadlock"] + argv)
        output = capsys.readouterr().out
        assert code == 0
        assert "single-VC baseline" in output and ": free" in output
        assert "deadlock-prone design is proved" not in output
        assert "baseline is already deadlock-free" in output


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


class TestImportPath:
    """Fresh-interpreter ``sys.modules`` pins: every sub-command imports
    what it runs, so ``import repro.cli`` loads no engine code and a
    ``repro batch`` replayed from its store builds nothing."""

    #: Runs ``repro.cli.main(ARGV)`` (none for an empty list) in a fresh
    #: interpreter and prints the loaded modules after the import and
    #: after the call.
    PROBE = (
        "import contextlib, io, json, sys\n"
        "import repro.cli\n"
        "print(json.dumps(sorted(sys.modules)))\n"
        "argv = json.loads(sys.argv[1])\n"
        "if argv:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert repro.cli.main(argv) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )

    #: A small matrix over every shipped kind, healthy and faulty.
    MATRIX = ["mesh:3x3, routing=[xy,adaptive], faults=0..1",
              "ring:4, routing=[chain,clockwise]",
              "vc-mesh:3x3, vcs=1..2", "vc-ring:4, vcs=2"]

    #: Engine modules a fully replayed ``repro batch --store`` must not
    #: load (a trailing dot matches a whole package).
    NOT_ON_REPLAY = (
        "repro.checking.", "repro.core.deadlock", "repro.core.dependency",
        "repro.core.instance", "repro.core.configuration",
        "repro.core.genoc", "repro.network.", "repro.routing.",
        "repro.switching.", "repro.simulation", "repro.hermes.flows",
        "repro.reporting.effort", "multiprocessing", "concurrent.futures")

    @classmethod
    def loaded(cls, tmp_path, argv):
        """The modules loaded after ``import repro.cli`` and after the call."""
        import json

        result = subprocess.run(
            [sys.executable, "-c", cls.PROBE, json.dumps(argv)],
            cwd=str(tmp_path), env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True, text=True, timeout=120, check=True)
        lines = result.stdout.splitlines()
        return set(json.loads(lines[0])), set(json.loads(lines[-1]))

    @staticmethod
    def matching(modules, patterns):
        return sorted(name for name in modules for pattern in patterns
                      if name == pattern or (pattern.endswith(".")
                                             and name.startswith(pattern)))

    def test_cli_import_loads_no_core_module(self, tmp_path):
        """``import repro.cli`` loads no ``repro.core`` module (the
        errors module alone would be allowed) and no other package."""
        after_import, _ = self.loaded(tmp_path, [])
        repro_modules = {name for name in after_import
                         if name.split(".")[0] == "repro"}
        assert repro_modules - {"repro.core", "repro.core.errors"} == {
            "repro", "repro.cli"}

    def test_cli_and_default_batch_load_only_the_graph_search(self,
                                                             tmp_path):
        """The store, the pool and the simulation stay off the default
        path: a default ``repro batch`` at ``--jobs 1`` without
        ``--store`` loads the graph algorithms and no other
        ``repro.checking`` module."""
        after_import, after_batch = self.loaded(tmp_path, ["batch"])
        assert self.matching(after_import, ["repro.checking."]) == []
        assert self.matching(after_batch, ["repro.checking."]) == [
            "repro.checking.graphs"]
        assert self.matching(after_batch, [
            "repro.core.store", "logging", "multiprocessing",
            "concurrent.futures", "repro.simulation"]) == []

    def test_default_batch_loads_no_genoc_witness_or_deadlock(self,
                                                               tmp_path):
        """A default batch over a mesh and a ``vc-mesh`` scenario runs no
        GeNoC step, no witness construction and no deadlock predicate,
        so it loads none of their modules."""
        _, after_batch = self.loaded(tmp_path, [
            "batch", "--matrix", "mesh:3x3, routing=[xy,adaptive]",
            "vc-mesh:3x3, vcs=1..2"])
        assert "repro.core.instance" in after_batch
        assert self.matching(after_batch, [
            "repro.core.genoc", "repro.core.witness",
            "repro.core.deadlock"]) == []

    def test_warm_store_replay_loads_no_engine_code(self, tmp_path):
        """Once every group is in the store, a rerun replays them all
        without loading graphs, deadlock, dependency, instance, network,
        routing or switching code."""
        import json

        store = str(tmp_path / "store")
        report = str(tmp_path / "warm.json")
        argv = ["batch", "--store", store, "--matrix"] + self.MATRIX
        assert main(argv) == 0
        _, after_rerun = self.loaded(tmp_path, argv + ["--json", report])
        with open(report, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["store"]["misses"] == 0
        assert payload["store"]["hits"] == 4
        assert self.matching(after_rerun, self.NOT_ON_REPLAY) == []
        assert "repro.core.store" in after_rerun

    def test_simulate_loads_no_portfolio_store_or_solver(self, tmp_path):
        _, after = self.loaded(tmp_path, ["simulate", "--width", "3",
                                          "--height", "3",
                                          "--messages", "4"])
        assert self.matching(after, [
            "repro.core.portfolio", "repro.core.store",
            "repro.checking."]) == []
        assert "repro.simulation.simulator" in after

    def test_simulate_loads_no_proof_obligation_spec_or_session(self,
                                                                 tmp_path):
        """``repro simulate`` checks CorrThm and EvacThm at run time: it
        loads no obligation checker, no graph search, no scenario spec
        and not the module of the deadlock query session (``Ω`` is asked
        through :func:`repro.core.constituents.is_deadlock`)."""
        from repro.core.deadlock import DeadlockQuerySession

        _, after = self.loaded(tmp_path, ["simulate", "--width", "4",
                                          "--height", "4",
                                          "--messages", "40"])
        assert self.matching(after, [
            "repro.core.obligations", "repro.checking.", "repro.core.spec",
            DeadlockQuerySession.__module__]) == []
        assert "repro.core.genoc" in after

    #: The ``repro`` modules a default ``repro batch`` loads: the graph
    #: search and the five scenario kinds' build code, no session, store,
    #: GeNoC engine or theorem checker.
    DEFAULT_BATCH = {
        "repro", "repro.checking", "repro.checking.graphs", "repro.cli",
        "repro.core", "repro.core.cache", "repro.core.configuration",
        "repro.core.constituents", "repro.core.dependency",
        "repro.core.errors", "repro.core.faultplan", "repro.core.instance",
        "repro.core.measure", "repro.core.portfolio", "repro.core.spec",
        "repro.core.state", "repro.core.travel", "repro.hermes",
        "repro.hermes.dependency", "repro.hermes.injection",
        "repro.hermes.instantiation", "repro.hermes.ports", "repro.network",
        "repro.network.buffers", "repro.network.flit", "repro.network.mesh",
        "repro.network.node", "repro.network.port", "repro.network.ring",
        "repro.network.topology", "repro.network.vc", "repro.reporting",
        "repro.reporting.tables", "repro.ringnoc",
        "repro.ringnoc.instantiation", "repro.routing",
        "repro.routing.adaptive", "repro.routing.base",
        "repro.routing.dimension_order", "repro.routing.escape",
        "repro.routing.ring", "repro.routing.turn_model", "repro.routing.xy",
        "repro.routing.yx", "repro.switching", "repro.switching.base",
        "repro.switching.store_and_forward",
        "repro.switching.virtual_cut_through", "repro.switching.wormhole"}

    #: The ``repro`` modules a fully replayed ``repro batch --store``
    #: loads.
    WARM_REPLAY = {
        "repro", "repro.cli", "repro.core", "repro.core.cache",
        "repro.core.errors", "repro.core.faultplan", "repro.core.portfolio",
        "repro.core.spec", "repro.core.store", "repro.reporting",
        "repro.reporting.tables"}

    @staticmethod
    def repro_modules(modules):
        return {name for name in modules if name.split(".")[0] == "repro"}

    def test_default_batch_and_warm_replay_module_sets(self, tmp_path):
        """The two batch paths load exactly the pinned module sets, so
        what ``repro simulate`` stopped loading did not move onto them."""
        _, after_batch = self.loaded(tmp_path, ["batch"])
        assert self.repro_modules(after_batch) == self.DEFAULT_BATCH
        store = str(tmp_path / "store")
        argv = ["batch", "--store", store, "--matrix",
                "mesh:3x3, routing=[xy,adaptive], faults=0..1"]
        assert main(argv) == 0
        _, after_rerun = self.loaded(tmp_path, argv)
        assert self.repro_modules(after_rerun) == self.WARM_REPLAY

    def test_package_inits_import_nothing(self):
        """Every subpackage ``__init__`` is a docstring only: a re-export
        layer (or a lazy ``__getattr__`` one) would turn importing one
        module into importing its whole package again."""
        import ast
        import glob

        inits = sorted(glob.glob(os.path.join(SRC, "repro", "*",
                                              "__init__.py")))
        assert len(inits) >= 10
        for path in inits:
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            imports = [node.lineno for node in ast.walk(tree)
                       if isinstance(node, (ast.Import, ast.ImportFrom))]
            assert imports == [], f"{path} imports on lines {imports}"
            assert ast.get_docstring(tree), f"{path} has no docstring"
            assert len(tree.body) == 1, f"{path} holds more than a docstring"

