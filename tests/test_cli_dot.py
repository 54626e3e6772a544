"""Tests for the command-line interface and the DOT export."""

import os
import subprocess
import sys

import pytest

from repro.checking.graphs import find_cycle_dfs
from repro.cli import build_parser, main
from repro.core.dependency import routing_dependency_graph
from repro.hermes import build_exy_graph
from repro.network.mesh import Mesh2D
from repro.reporting.dot import dependency_graph_to_dot, write_dot
from repro.routing.ring import ClockwiseRingRouting
from repro.network.ring import Ring


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


class TestImportPath:
    #: Prints the ``repro.checking`` modules loaded after ``import
    #: repro.cli`` and again after a default ``repro batch``.
    PROBE = (
        "import sys\n"
        "def loaded():\n"
        "    return sorted(name for name in sys.modules\n"
        "                  if name.startswith('repro.checking.'))\n"
        "import repro.cli\n"
        "print(loaded())\n"
        "assert repro.cli.main(['batch']) == 0\n"
        "print(loaded())\n"
    )

    def test_cli_and_default_batch_load_only_the_graph_search(self,
                                                             tmp_path):
        """The SAT stack stays off the default path: a fresh interpreter
        importing the CLI and running a default sweep loads no
        ``repro.checking`` module but the graph algorithms."""
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        result = subprocess.run(
            [sys.executable, "-c", self.PROBE], cwd=str(tmp_path),
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=120, check=True)
        lines = result.stdout.splitlines()
        expected = "['repro.checking.graphs']"
        assert lines[0] == expected
        assert lines[-1] == expected
