"""Benchmark: headline claims (§1 / §4.4) — paper vs measured.

Folds the Fig. 9(b), Fig. 10 and Fig. 11(b) scoreboards into the paper's
headline claims, one row per claim and FIRM variant, each with a verdict
(:func:`repro.experiments.summary.verdict`).  Absolute factors differ (the
substrate is a simulator with idealized partition isolation); a comparison
claim reproduces when it points the paper's way.

It runs no simulation.  In a full run it reads the scoreboards the figure
benches have just written; in the CI smoke job it reads the committed
ones, so that job's diff of ``benchmarks/results/`` catches a verdict that
moves.  The directions themselves are asserted where they are measured:
the Fig. 10, Fig. 9(b) and Fig. 11(b) benches.
"""

from __future__ import annotations

import json
import math

import pytest
from conftest import save_result

from repro.experiments.summary import improvement_over, run_summary, verdict

pytestmark = [pytest.mark.smoke]

#: Claim metric -> its key in :func:`improvement_over`'s dict.
_FIG10_KEYS = {
    "slo_violation_factor": "violation_factor",
    "p99_factor": "p99_factor",
    "requested_cpu_reduction": "requested_cpu_reduction",
}


def _recomputed(row, boards):
    """The row's measurement, read again from its source scoreboard."""
    board = boards[row["source"]]
    if row["claim"] == "localization_accuracy":
        return board["overall"]
    metric, _, baseline = row["claim"].rpartition("_vs_")
    if metric == "mitigation_speedup":
        return board[f"speedup_vs_{baseline}"]
    return improvement_over(board[row["variant"]], board[baseline])[_FIG10_KEYS[metric]]


def test_bench_headline_summary(benchmark, results_dir):
    rows = benchmark.pedantic(lambda: run_summary(results_dir), rounds=1, iterations=1)

    print("\n=== Headline claims: paper vs measured ===")
    print(f"{'claim':>32} {'variant':>12} {'paper':>7} {'measured':>9}  verdict")
    for row in rows:
        measured = "null" if row["measured"] is None else f"{row['measured']:.3f}"
        print(f"{row['claim']:>32} {row['variant']:>12} {row['paper']:>7} {measured:>9}  "
              f"{row['verdict']}")
    save_result(results_dir, "summary", rows)

    boards = {
        f"{name}.json": json.loads((results_dir / f"{name}.json").read_text(encoding="utf-8"))
        for name in ("fig9b", "fig10", "fig11b")
    }
    for row in rows:
        assert {"claim", "paper", "measured", "source", "seeds", "verdict"} <= set(row)
        assert row["seeds"] == boards[row["source"]]["seeds"]
        assert row["measured"] == _recomputed(row, boards)
        assert row["measured"] is None or math.isfinite(row["measured"])
        assert row["verdict"] == verdict(row["claim"], row["measured"])
        assert (row["verdict"] == "undefined") == (row["measured"] is None)
    # The Fig. 10 bench's own improvement_vs_* ratios are firm_single's rows.
    fig10 = boards["fig10.json"]
    for row in rows:
        metric, _, baseline = row["claim"].rpartition("_vs_")
        if row["variant"] == "firm_single" and metric in _FIG10_KEYS:
            assert row["measured"] == fig10[f"improvement_vs_{baseline}"][_FIG10_KEYS[metric]]
