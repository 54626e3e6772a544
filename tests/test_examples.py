"""Smoke tests: every example script runs to completion."""

import pathlib
import re
import runpy
import sys
import textwrap

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name, argv=None):
    script = EXAMPLES_DIR / name
    assert script.exists(), f"missing example {script}"
    old_argv = sys.argv
    sys.argv = [str(script)] + (argv or [])
    try:
        runpy.run_path(str(script), run_name="__main__")
    finally:
        sys.argv = old_argv


class TestExamples:
    def test_quickstart(self, capsys):
        run_example("quickstart.py")
        output = capsys.readouterr().out
        assert "CorrThm   : holds" in output
        assert "EvacThm   : holds" in output

    def test_verify_hermes_small(self, capsys):
        run_example("verify_hermes.py", ["3"])
        output = capsys.readouterr().out
        assert "all hold" in output
        assert "(C-3) holds for all mesh sizes: True" in output
        assert "Overall" in output

    def test_deadlock_demo(self, capsys):
        run_example("deadlock_demo.py")
        output = capsys.readouterr().out
        assert "VIOLATED" in output
        assert "deadlock reachable" in output
        assert "constructed configuration is a deadlock: True" in output

    def test_custom_noc(self, capsys):
        run_example("custom_noc.py")
        output = capsys.readouterr().out
        assert "VERDICT: verified" in output
        assert "evacuation: True" in output

    def test_dependency_graph_figure(self, capsys):
        run_example("dependency_graph_figure.py", ["2", "2"])
        output = capsys.readouterr().out
        assert "acyclic (certificate checked): True" in output
        assert "statistics" in output


class TestDocSnippets:
    """The code shown in the README and in the package docstring runs."""

    def test_readme_python_block(self):
        readme = (EXAMPLES_DIR.parent / "README.md").read_text(
            encoding="utf-8")
        blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
        assert blocks, "README.md shows no python block"
        for block in blocks:
            exec(compile(block, "README.md", "exec"), {})

    def test_package_quickstart(self, capsys):
        import repro

        _, _, rest = repro.__doc__.partition("Quickstart::\n")
        lines = []
        for line in rest.splitlines():
            if line.strip() and not line.startswith("    "):
                break
            lines.append(line)
        snippet = textwrap.dedent("\n".join(lines)).strip()
        assert snippet.startswith("from repro.")
        exec(compile(snippet, "repro.__doc__", "exec"), {})
        assert "messages" in capsys.readouterr().out

