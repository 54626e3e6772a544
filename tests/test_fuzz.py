"""Unit tests for the randomized-topology fuzz campaign
(:mod:`repro.core.fuzz`): deterministic spec generation, the independent
brute-force decider, campaign reports and the ``repro fuzz`` CLI."""

import json

import pytest

from repro.cli import main as cli_main
from repro.core.fuzz import (
    FUZZ_KINDS,
    brute_force_acyclic,
    generate_fuzz_specs,
    run_fuzz_campaign,
)


class TestSpecGeneration:
    def test_generation_is_deterministic_in_the_campaign_seed(self):
        first = generate_fuzz_specs(30, campaign_seed=2010)
        second = generate_fuzz_specs(30, campaign_seed=2010)
        assert first == second
        other = generate_fuzz_specs(30, campaign_seed=2011)
        assert first != other

    def test_prefix_stability(self):
        """Instance i is a pure function of (campaign_seed, i): asking for
        more instances never changes the earlier ones."""
        short = generate_fuzz_specs(10, campaign_seed=7)
        long = generate_fuzz_specs(25, campaign_seed=7)
        assert long[:10] == short

    def test_all_kinds_appear_and_all_specs_build(self):
        specs = generate_fuzz_specs(60, campaign_seed=2010)
        kinds = {spec.kind for spec in specs}
        assert kinds == {kind for kind, _ in FUZZ_KINDS}
        assert any(spec.faults for spec in specs)
        assert any(not spec.faults for spec in specs)
        # Every tenth spec actually constructs (all of them do in the
        # campaign; sampling keeps this test fast).
        for spec in specs[::10]:
            instance = spec.build()
            assert instance.name

    def test_specs_respect_the_size_bound(self):
        specs = generate_fuzz_specs(40, max_size=(2, 2), campaign_seed=3)
        for spec in specs:
            if spec.kind in ("mesh", "vc-mesh", "vc-torus"):
                assert all(dim <= 2 for dim in spec.dims)

    def test_rejects_degenerate_size_bound(self):
        from repro.core.errors import SpecificationError

        with pytest.raises(SpecificationError):
            generate_fuzz_specs(5, max_size=(1, 3))


class TestBruteForceDecider:
    def test_acyclic_chain(self):
        assert brute_force_acyclic([("a", "b"), ("b", "c"), ("a", "c")]) \
            is True

    def test_two_cycle(self):
        assert brute_force_acyclic([("a", "b"), ("b", "a")]) is False

    def test_self_loop(self):
        assert brute_force_acyclic([("a", "a")]) is False

    def test_long_cycle_behind_a_tail(self):
        edges = [("t", "a"), ("a", "b"), ("b", "c"), ("c", "a")]
        assert brute_force_acyclic(edges) is False

    def test_empty_graph_is_acyclic(self):
        assert brute_force_acyclic([]) is True

    def test_size_cap_refuses_with_none(self):
        edges = [(i, i + 1) for i in range(20)]
        assert brute_force_acyclic(edges, max_vertices=5) is None


class TestCampaign:
    @pytest.fixture(scope="class")
    def report(self):
        return run_fuzz_campaign(count=12, max_size=(3, 3),
                                 campaign_seed=2010)

    def test_small_campaign_has_no_disagreements(self, report):
        assert report.ok
        assert not report.disagreements
        assert len(report.verdicts) == 12

    def test_campaign_mixes_verdicts_and_runs_every_decider(self, report):
        assert report.free_count + report.prone_count == 12
        assert report.free_count and report.prone_count
        assert report.brute_checked > 0
        assert report.simulated > 0
        for verdict in report.verdicts:
            assert verdict.session_free == verdict.explicit_free
            if verdict.brute_free is not None:
                assert verdict.brute_free == verdict.explicit_free

    def test_campaign_is_deterministic(self, report):
        again = run_fuzz_campaign(count=12, max_size=(3, 3),
                                  campaign_seed=2010)

        def stable(verdicts):
            rows = []
            for verdict in verdicts:
                row = verdict.to_json_dict()
                row.pop("elapsed_ms", None)
                rows.append(row)
            return rows

        assert stable(again.verdicts) == stable(report.verdicts)

    def test_report_json_shape(self, report):
        payload = report.to_json_dict()
        assert payload["instances"] == 12
        assert payload["campaign_seed"] == 2010
        assert payload["disagreements"] == []
        assert len(payload["verdicts"]) == 12
        for entry in payload["verdicts"]:
            assert {"scenario", "condition", "deadlock_free",
                    "disagreements"} <= set(entry)
        json.dumps(payload)  # must be serializable as-is

    @pytest.mark.parametrize("method, lie", [
        ("is_deadlock_free_edges", lambda answer: not answer),
        ("escape_edges_for", lambda answer: answer + [("ghost", "edge")]),
    ], ids=["verdict", "escape-set"])
    def test_a_wrong_session_answer_is_a_disagreement(self, method, lie,
                                                      monkeypatch):
        """The cross-check compares the session's verdicts and, through
        ``escape_edges_for``, its single-edge repairs with the graph
        search; either one lying must surface as ``session-vs-explicit``."""
        from repro.core.deadlock import DeadlockQuerySession

        honest = getattr(DeadlockQuerySession, method)
        monkeypatch.setattr(DeadlockQuerySession, method,
                            lambda self, edges: lie(honest(self, edges)))
        report = run_fuzz_campaign(count=12, max_size=(3, 3),
                                   campaign_seed=2010, simulate=False)
        assert not report.ok
        assert any(line.startswith("session-vs-explicit")
                   for verdict in report.verdicts
                   for line in verdict.disagreements)

    def test_summary_reports_agreement(self, report):
        text = report.format_summary()
        assert "12 instances" in text
        assert "all deciders agree" in text


class TestFuzzCli:
    def test_fuzz_command_smoke(self, tmp_path, capsys):
        out = tmp_path / "fuzz.json"
        code = cli_main(["fuzz", "--seeds", "6", "--max-size", "3x3",
                         "--quiet", "--json", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "6 instances" in captured
        payload = json.loads(out.read_text())
        assert payload["instances"] == 6
        assert payload["disagreements"] == []

    def test_fuzz_rejects_malformed_max_size(self):
        with pytest.raises(SystemExit):
            cli_main(["fuzz", "--seeds", "1", "--max-size", "huge"])

    @pytest.mark.parametrize("size", ["0x0", "1x5"])
    def test_fuzz_rejects_a_max_size_below_2x2(self, size):
        with pytest.raises(SystemExit, match="at least 2x2"):
            cli_main(["fuzz", "--seeds", "1", "--max-size", size])

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_fuzz_rejects_a_seed_count_below_one(self, count, capsys):
        with pytest.raises(SystemExit, match="--seeds must be at least 1"):
            cli_main(["fuzz", "--seeds", count])
        assert "all deciders agree" not in capsys.readouterr().out
