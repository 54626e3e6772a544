"""Tests for the ring instantiation and the Table-I-style effort reporting."""

import pytest

from repro.core.obligations import check_c3_routing_induced
from repro.core.pipeline import verify_instance
from repro.core.theorems import check_deadlock_freedom
from repro.network.ring import Ring
from repro.reporting.effort import (
    COMPONENT_MODULES,
    EffortRow,
    EffortTable,
    PAPER_TABLE_I,
    build_effort_table,
)
from repro.reporting.tables import (
    dicts_to_rows,
    format_table,
    rows_to_markdown,
)
from repro.ringnoc.instantiation import (
    ChainRingDependencySpec,
    build_chain_ring_instance,
    build_clockwise_ring_instance,
)


class TestChainRingInstance:
    def test_obligations_and_theorems_hold(self):
        instance = build_chain_ring_instance(5)
        workloads = [[instance.make_travel((0, 0), (4, 0), num_flits=3),
                      instance.make_travel((4, 0), (0, 0), num_flits=3),
                      instance.make_travel((2, 0), (0, 0), num_flits=2)]]
        report = verify_instance(instance, workloads)
        assert report.verified

    def test_dependency_spec_excludes_wrap_links(self):
        ring = Ring(4)
        spec = ChainRingDependencySpec(ring)
        from repro.network.port import Direction, Port, PortName

        wrap_east = Port(3, 0, PortName.EAST, Direction.OUT)
        wrap_west = Port(0, 0, PortName.WEST, Direction.OUT)
        assert spec.edges_from(wrap_east) == set()
        assert spec.edges_from(wrap_west) == set()

    def test_dependency_spec_is_acyclic(self):
        instance = build_chain_ring_instance(6)
        theorem = check_deadlock_freedom(instance)
        assert theorem.holds

    def test_simulation_evacuates(self):
        instance = build_chain_ring_instance(6)
        travels = [instance.make_travel((i, 0), (5 - i, 0), num_flits=2)
                   for i in range(6) if i != 5 - i]
        result = instance.run(travels)
        assert result.evacuated


class TestClockwiseRingInstance:
    def test_c3_fails_on_induced_graph(self):
        instance = build_clockwise_ring_instance(4)
        assert not check_c3_routing_induced(instance.routing).holds

    def test_workload_deadlocks_in_simulation(self):
        instance = build_clockwise_ring_instance(4)
        travels = [instance.make_travel((i, 0), ((i + 2) % 4, 0), num_flits=4)
                   for i in range(4)]
        result = instance.run(travels, capacity=1)
        assert result.deadlocked
        assert not result.evacuated

    def test_light_workload_still_evacuates(self):
        # A single message cannot deadlock even on the cyclic design.
        instance = build_clockwise_ring_instance(4)
        result = instance.run([instance.make_travel((0, 0), (2, 0),
                                                    num_flits=3)])
        assert result.evacuated


class TestEffortTable:
    @pytest.fixture(scope="class")
    def table(self):
        return build_effort_table(2, 2)

    def test_rows_cover_every_component(self, table):
        components = {row.component for row in table.rows}
        assert components == set(COMPONENT_MODULES)

    def test_rows_have_positive_lines_and_functions(self, table):
        for row in table.rows:
            assert row.lines > 0
            assert row.functions > 0

    def test_instance_specific_rows_have_checks(self, table):
        for component in ["(C-1)xy", "(C-2)xy", "(C-3)xy", "Iid, (C-4)",
                          "Swh, (C-5)", "Rxy", "CorrThm", "Dead/EvacThm"]:
            assert table.row(component).checks > 0, component

    def test_overall_row_sums(self, table):
        overall = table.overall()
        assert overall.lines == sum(row.lines for row in table.rows)
        assert overall.checks == sum(row.checks for row in table.rows)
        assert overall.paper_lines == PAPER_TABLE_I["Overall"][0]

    def test_formatted_table_contains_paper_columns(self, table):
        text = table.formatted()
        assert "Paper Thms" in text
        assert "Overall" in text
        assert "(C-3)xy" in text

    def test_row_lookup_raises_for_unknown(self, table):
        with pytest.raises(KeyError):
            table.row("does-not-exist")

    def test_paper_table_shape(self):
        assert PAPER_TABLE_I["Overall"][1] == 1008
        assert PAPER_TABLE_I["(C-3)xy"][4] == 4
        assert PAPER_TABLE_I["Generic Defs"][4] is None


class TestTableFormatting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_markdown_table(self):
        text = rows_to_markdown(["x", "y"], [[1, 2]])
        assert text.splitlines()[0] == "| x | y |"
        assert "| 1 | 2 |" in text

    def test_dicts_to_rows(self):
        rows = dicts_to_rows([{"a": 1, "b": 2}, {"a": 3}], ["a", "b"])
        assert rows == [[1, 2], [3, ""]]

    def test_effort_row_cells_handle_missing_paper_values(self):
        row = EffortRow(component="X", lines=1, checks=2, functions=3,
                        cpu_seconds=0.5)
        cells = row.as_cells()
        assert "N/A" in cells
