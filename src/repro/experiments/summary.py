"""Headline claims (§1 / §4.4 of the paper), folded over the scoreboards.

:func:`summarize` reads the Fig. 9(b), 10 and 11(b) benches' scoreboards
(``benchmarks/results/fig9b.json``, ``fig10.json``, ``fig11b.json``) and
states each claim per FIRM variant with the paper's value, the measured
value, its scoreboard and seeds, and a :func:`verdict`.  It runs no
scenario, so it cannot disagree with the figures.  README's "What
reproduces" table copies its rows.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

#: The paper's headline numbers (§1, §4.4).
PAPER = {
    "slo_violation_factor_vs_k8s": 16.7,
    "slo_violation_factor_vs_aimd": 9.8,
    "p99_factor_vs_k8s": 11.5,
    "requested_cpu_reduction_vs_k8s": 0.623,
    "localization_accuracy": 0.938,
    "mitigation_speedup_vs_aimd": 9.6,
    "mitigation_speedup_vs_k8s": 30.1,
}

#: Wider than the paper's own spread over its applications (92.8%-94.6%).
ACCURACY_TOLERANCE = 0.05


def improvement_over(firm: Dict[str, float], baseline: Dict[str, float]) -> Dict[str, float]:
    """FIRM's improvement over one baseline, from two run ``summary()`` dicts.

    A drop counts as a violation (it is worse than a slow reply), and the
    counts are Laplace-smoothed so two near-zero counts compare as ~1x.
    """
    return {
        "violation_factor": (baseline["violations"] + baseline["dropped"] + 1)
        / (firm["violations"] + firm["dropped"] + 1),
        "p99_factor": baseline["p99_ms"] / max(firm["p99_ms"], 1e-9),
        "requested_cpu_reduction": 1.0
        - firm["mean_requested_cpu"] / max(baseline["mean_requested_cpu"], 1e-9),
        "dropped_factor": baseline["dropped"] / max(firm["dropped"], 1),
    }


def verdict(claim: str, measured: Optional[float]) -> str:
    """Whether one measured claim reproduces the paper.

    * ``undefined`` when the measurement is ``None``: there is nothing to
      judge (a FIRM episode with no violation had nothing to mitigate).
    * ``localization_accuracy`` is an absolute rate, so it is
      ``reproduced`` within :data:`ACCURACY_TOLERANCE` of the paper's value.
    * Every other claim compares FIRM with a baseline.  The simulator is not
      the paper's testbed, so absolute factors differ and the direction is
      what carries over: ``reproduced`` when FIRM is better, that is, a
      factor or speedup above 1, or a requested-CPU reduction above 0.
    """
    if measured is None:
        return "undefined"
    if claim == "localization_accuracy":
        better = abs(measured - PAPER[claim]) <= ACCURACY_TOLERANCE
    else:
        better = measured > (0.0 if claim == "requested_cpu_reduction_vs_k8s" else 1.0)
    return "reproduced" if better else "not reproduced"


def summarize(fig9b: dict, fig10: dict, fig11b: dict) -> List[dict]:
    """One row per claim and FIRM variant, from the three scoreboard payloads.

    Both Fig. 10 variants share the localization stage Fig. 9(b) scores.
    Fig. 11(b) trains only the shared agent, so its rows are ``firm_single``.
    """
    measured = []
    for variant in (name for name in ("firm_single", "firm_multi") if name in fig10):
        vs_k8s = improvement_over(fig10[variant], fig10["k8s"])
        measured += [
            ("slo_violation_factor_vs_k8s", variant, vs_k8s["violation_factor"], "fig10"),
            ("slo_violation_factor_vs_aimd", variant,
             improvement_over(fig10[variant], fig10["aimd"])["violation_factor"], "fig10"),
            ("p99_factor_vs_k8s", variant, vs_k8s["p99_factor"], "fig10"),
            ("requested_cpu_reduction_vs_k8s", variant, vs_k8s["requested_cpu_reduction"], "fig10"),
            ("localization_accuracy", variant, fig9b["overall"], "fig9b"),
        ]
    for baseline in ("aimd", "k8s"):
        speedup = fig11b[f"speedup_vs_{baseline}"]
        measured.append((f"mitigation_speedup_vs_{baseline}", "firm_single", speedup, "fig11b"))
    boards = {"fig9b": fig9b, "fig10": fig10, "fig11b": fig11b}
    return [
        {
            "claim": claim,
            "variant": variant,
            "paper": PAPER[claim],
            "measured": value,
            "source": f"{board}.json",
            "seeds": boards[board]["seeds"],
            "verdict": verdict(claim, value),
        }
        for claim, variant, value, board in measured
    ]


def run_summary(results_dir: Union[str, Path] = "benchmarks/results") -> List[dict]:
    """:func:`summarize` the scoreboards the benches wrote to ``results_dir``."""
    boards = [
        json.loads((Path(results_dir) / f"{name}.json").read_text(encoding="utf-8"))
        for name in ("fig9b", "fig10", "fig11b")
    ]
    return summarize(*boards)
