"""Tests for the command-line interface and the DOT export."""

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
