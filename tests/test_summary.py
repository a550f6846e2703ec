"""The headline summary is a fold over the Fig. 9(b), 10 and 11(b) scoreboards.

Synthetic scoreboards stand in for the benches' JSON payloads, so these
tests pin the verdict rule, the one ratio definition and the mitigation
sentinel without running a scenario.
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.fig11_rl_training import MitigationComparison, mitigation_time_s
from repro.experiments.harness import ExperimentHarness
from repro.experiments.summary import (
    ACCURACY_TOLERANCE,
    PAPER,
    improvement_over,
    run_summary,
    summarize,
    verdict,
)

REPO = Path(__file__).resolve().parents[1]
RESULTS = REPO / "benchmarks" / "results"
FIG10_CLAIMS = {
    "slo_violation_factor_vs_k8s": ("k8s", "violation_factor"),
    "slo_violation_factor_vs_aimd": ("aimd", "violation_factor"),
    "p99_factor_vs_k8s": ("k8s", "p99_factor"),
    "requested_cpu_reduction_vs_k8s": ("k8s", "requested_cpu_reduction"),
}


def _run(violations: float, p99_ms: float, cpu: float, dropped: float = 0.0) -> dict:
    """A run ``summary()`` dict, as the Fig. 10 bench writes it."""
    return {
        "completed": 1000.0,
        "violations": violations,
        "violation_rate": violations / 1000.0,
        "dropped": dropped,
        "p50_ms": 10.0,
        "p99_ms": p99_ms,
        "mean_requested_cpu": cpu,
        "mean_mitigation_time_s": 0.0,
    }


def _comparison(firm_by_episode, aimd_s, k8s_s) -> MitigationComparison:
    return MitigationComparison(firm_by_episode, {"aimd": aimd_s, "k8s": k8s_s})


def _fig11b(comparison: MitigationComparison) -> dict:
    """The Fig. 11(b) payload, as its bench writes it."""
    payload = {"seeds": [43], "firm_final_s": comparison.firm_final()}
    for name, time in comparison.baselines_s.items():
        payload[f"{name}_s"] = time
        payload[f"speedup_vs_{name}"] = comparison.speedup(name)
    return payload


def _boards(comparison: MitigationComparison = _comparison([6.0, 2.0], 20.0, 40.0)):
    fig9b = {"per_application": {}, "overall": 0.85, "seeds": [23]}
    fig10 = {
        "seeds": [31],
        "k8s": _run(99.0, 300.0, 200.0),
        "aimd": _run(9.0, 80.0, 150.0),
        "firm_single": _run(199.0, 400.0, 100.0),
        "firm_multi": _run(3.0, 50.0, 110.0, dropped=1.0),
    }
    return fig9b, fig10, _fig11b(comparison)


class TestMitigationSentinel:
    def test_one_rule_for_every_run(self):
        assert mitigation_time_s([2.0, 4.0], True, 20.0) == 3.0
        assert mitigation_time_s([], True, 20.0) == 20.0
        assert mitigation_time_s([], False, 20.0) is None

    def test_speedup_is_null_when_either_side_saw_no_violation(self):
        comparison = _comparison([4.0], None, 20.0)
        assert comparison.speedup("aimd") is None
        assert comparison.speedup("k8s") == 5.0
        assert _comparison([4.0, None], 20.0, 20.0).speedup("k8s") is None
        assert _comparison([], 20.0, 20.0).speedup("k8s") is None

    def test_final_episode_without_violation_gives_null_speedup_and_undefined_verdict(self):
        comparison = _comparison([6.0, None], 20.0, 20.0)
        assert comparison.episodes_without_violation() == 1
        rows = summarize(*_boards(comparison))
        mitigation = [row for row in rows if row["claim"].startswith("mitigation_speedup")]
        assert [row["claim"] for row in mitigation] == [
            "mitigation_speedup_vs_aimd", "mitigation_speedup_vs_k8s",
        ]
        for row in mitigation:
            assert row["measured"] is None
            assert row["verdict"] == "undefined"
        json.dumps(rows, allow_nan=False)


class TestVerdictRule:
    @pytest.mark.parametrize("claim", sorted(PAPER))
    def test_null_measurement_is_undefined(self, claim):
        assert verdict(claim, None) == "undefined"

    @pytest.mark.parametrize("claim", [
        "slo_violation_factor_vs_k8s", "slo_violation_factor_vs_aimd", "p99_factor_vs_k8s",
        "mitigation_speedup_vs_aimd", "mitigation_speedup_vs_k8s",
    ])
    def test_a_factor_reproduces_above_one(self, claim):
        assert verdict(claim, 1.01) == "reproduced"
        assert verdict(claim, 1.0) == "not reproduced"
        assert verdict(claim, 0.06) == "not reproduced"

    def test_a_cpu_reduction_reproduces_above_zero(self):
        claim = "requested_cpu_reduction_vs_k8s"
        assert verdict(claim, 0.01) == "reproduced"
        assert verdict(claim, 0.0) == "not reproduced"
        assert verdict(claim, -0.2) == "not reproduced"

    def test_accuracy_reproduces_within_the_tolerance(self):
        paper = PAPER["localization_accuracy"]
        inside = ACCURACY_TOLERANCE * 0.8
        outside = ACCURACY_TOLERANCE * 1.2
        assert verdict("localization_accuracy", paper - inside) == "reproduced"
        assert verdict("localization_accuracy", paper + inside) == "reproduced"
        assert verdict("localization_accuracy", paper - outside) == "not reproduced"
        assert verdict("localization_accuracy", paper + outside) == "not reproduced"


class TestSummarize:
    def test_one_row_per_claim_and_variant(self):
        fig9b, fig10, fig11b = boards = _boards()
        rows = summarize(*boards)
        keys = [(row["claim"], row["variant"]) for row in rows]
        expected = {
            (claim, variant)
            for variant in ("firm_single", "firm_multi")
            for claim in (*FIG10_CLAIMS, "localization_accuracy")
        } | {(f"mitigation_speedup_vs_{baseline}", "firm_single") for baseline in ("aimd", "k8s")}
        assert len(keys) == len(set(keys)) and set(keys) == expected
        sources = {"fig9b.json": fig9b, "fig10.json": fig10, "fig11b.json": fig11b}
        for row in rows:
            assert set(row) == {
                "claim", "variant", "paper", "measured", "source", "seeds", "verdict",
            }
            assert row["paper"] == PAPER[row["claim"]]
            assert row["seeds"] == sources[row["source"]]["seeds"]
            assert row["verdict"] == verdict(row["claim"], row["measured"])

    def test_firm_rows_equal_improvement_over(self):
        _, fig10, _ = boards = _boards()
        for row in summarize(*boards):
            if row["claim"] in FIG10_CLAIMS:
                baseline, key = FIG10_CLAIMS[row["claim"]]
                expected = improvement_over(fig10[row["variant"]], fig10[baseline])[key]
                assert row["measured"] == expected

    def test_verdicts_follow_the_direction_of_each_comparison(self):
        rows = {(row["claim"], row["variant"]): row for row in summarize(*_boards())}
        # firm_single has more violations and a higher p99 than both baselines.
        assert rows["slo_violation_factor_vs_k8s", "firm_single"]["measured"] == 0.5
        assert rows["slo_violation_factor_vs_k8s", "firm_single"]["verdict"] == "not reproduced"
        assert rows["p99_factor_vs_k8s", "firm_single"]["verdict"] == "not reproduced"
        # firm_multi's 3 violations plus 1 drop count as 4, smoothed to 5.
        assert rows["slo_violation_factor_vs_aimd", "firm_multi"]["measured"] == 2.0
        assert rows["slo_violation_factor_vs_aimd", "firm_multi"]["verdict"] == "reproduced"
        assert rows["requested_cpu_reduction_vs_k8s", "firm_single"]["measured"] == 0.5
        assert rows["mitigation_speedup_vs_k8s", "firm_single"]["measured"] == 20.0
        assert rows["localization_accuracy", "firm_multi"]["verdict"] == "not reproduced"

    def test_improvement_over_reproduces_the_fig10_scoreboard(self):
        fig10 = json.loads((RESULTS / "fig10.json").read_text(encoding="utf-8"))
        for baseline in ("k8s", "aimd"):
            assert improvement_over(fig10["firm_single"], fig10[baseline]) == (
                fig10[f"improvement_vs_{baseline}"]
            )

    def test_summary_module_imports_only_the_standard_library(self):
        tree = ast.parse((REPO / "src/repro/experiments/summary.py").read_text(encoding="utf-8"))
        imported = {
            (node.module if isinstance(node, ast.ImportFrom) else alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        assert imported <= set(sys.stdlib_module_names) | {"__future__"}


class TestSummaryCLI:
    def _write(self, directory: Path, boards) -> None:
        for name, board in zip(("fig9b", "fig10", "fig11b"), boards):
            (directory / f"{name}.json").write_text(json.dumps(board), encoding="utf-8")

    def test_run_summary_prints_rows_without_simulating(self, tmp_path, capsys, monkeypatch):
        def _refuse(*args, **kwargs):
            raise AssertionError("the summary ran a scenario")

        monkeypatch.setattr(ExperimentHarness, "from_spec", _refuse)
        boards = _boards()
        self._write(tmp_path, boards)
        assert main(["run", "summary", "--set", f"results_dir={tmp_path}"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == summarize(*boards) == run_summary(tmp_path)

    def test_missing_scoreboard_exits_2(self, tmp_path, capsys):
        assert main(["run", "summary", "--set", f"results_dir={tmp_path}"]) == 2
        assert capsys.readouterr().err.startswith("error:")


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


@pytest.mark.parametrize("path", sorted(RESULTS.glob("*.json")), ids=lambda path: path.name)
def test_scoreboard_holds_only_finite_numbers(path):
    json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
