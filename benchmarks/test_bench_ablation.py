"""Benchmark: ablations of FIRM's design choices.

Three ablations called out by the paper's discussion section:

* **two-level vs RL-only** — disabling the SVM filter (acting on every
  instance on the critical path) floods the RL stage with candidates; the
  paper argues the filter keeps the framework application-agnostic and the
  agent fast to train.  We compare actions taken per round.
* **fine-grained vs CPU-only actions** — restricting FIRM's actions to the
  CPU dimension (what a conventional autoscaler controls) removes its
  ability to mitigate memory-bandwidth contention (Fig. 1's point).
* **transfer learning vs from-scratch** — transferred agents start from
  the shared policy (Fig. 11(a)'s point); verified structurally.
"""

from __future__ import annotations

import numpy as np
from conftest import save_result

from repro.anomaly.anomalies import AnomalySpec, AnomalyType
from repro.anomaly.campaigns import AnomalyCampaign
from repro.core.firm import FIRMConfig
from repro.core.rl.ddpg import DDPGAgent, DDPGConfig
from repro.core.rl.transfer import transfer_agent
from repro.experiments.harness import ExperimentHarness
from repro.experiments.scenario import ScenarioSpec


def _memory_anomaly_harness(seed=19, duration_s=80.0, config=None):
    """FIRM (with ``config``) managing social_network under memory + CPU anomalies."""
    campaign = AnomalyCampaign("ablation")
    campaign.add(
        AnomalySpec(
            AnomalyType.MEMORY_BANDWIDTH, "post-storage-memcached",
            start_s=15.0, duration_s=duration_s - 20.0, intensity=0.95,
        )
    )
    campaign.add(
        AnomalySpec(
            AnomalyType.CPU_UTILIZATION, "composePost",
            start_s=15.0, duration_s=duration_s - 20.0, intensity=0.95,
        )
    )
    spec = ScenarioSpec(
        application="social_network",
        seed=seed,
        load_rps=50.0,
        controller="firm",
        controller_kwargs={"config": config},
        campaign=campaign,
    )
    return ExperimentHarness.from_spec(spec)


def test_bench_ablation_fine_grained_vs_cpu_only(benchmark, results_dir):
    """Fine-grained resource actions vs an (ablated) CPU-only action space."""

    def run() -> dict:
        duration = 80.0
        # Full FIRM.
        full = _memory_anomaly_harness()
        full_result = full.run(duration_s=duration)

        # CPU-only FIRM: clamp the non-CPU action bounds to the default limits
        # so the agent can only move the CPU dimension.
        from repro.core.rl.env import ResourceBounds
        from repro.cluster.resources import ResourceVector

        cpu_only_bounds = ResourceBounds(
            lower=ResourceVector.from_kwargs(
                cpu=2.0, memory_bandwidth=20.0, llc=8.0, disk_io=400.0, network=2.0
            ),
            upper=ResourceVector.from_kwargs(
                cpu=16.0, memory_bandwidth=20.0, llc=8.0, disk_io=400.0, network=2.0
            ),
        )
        cpu_only = _memory_anomaly_harness(config=FIRMConfig(bounds=cpu_only_bounds))
        cpu_only_result = cpu_only.run(duration_s=duration)
        return {"full": full_result, "cpu_only": cpu_only_result}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    full = results["full"]
    cpu_only = results["cpu_only"]

    print("\n=== Ablation: fine-grained vs CPU-only actions ===")
    print(f"full FIRM : p99={full.latency.p99:9.1f} ms violations={full.slo.violations_including_drops}")
    print(f"CPU-only  : p99={cpu_only.latency.p99:9.1f} ms violations={cpu_only.slo.violations_including_drops}")
    save_result(results_dir, "ablation_fine_grained", {
        "full": full.summary(), "cpu_only": cpu_only.summary(),
    })
    # Fine-grained control should do at least as well as CPU-only control.
    assert full.latency.p99 <= cpu_only.latency.p99 * 1.25


def test_bench_ablation_svm_filter(benchmark, results_dir):
    """Two-level (SVM filter + RL) vs acting on every CP instance."""

    def run() -> dict:
        duration = 60.0
        filtered = _memory_anomaly_harness(seed=23)
        firm_filtered = filtered.tenants[0].controller
        filtered.run(duration_s=duration)
        candidates_filtered = [len(r.candidates) for r in firm_filtered.rounds if r.slo_violated]

        unfiltered = _memory_anomaly_harness(seed=23)
        firm_unfiltered = unfiltered.tenants[0].controller
        # Ablate the filter: make the SVM flag everything on the CP.
        firm_unfiltered.svm.cold_start_thresholds = np.array([1e-9, 1e-9])
        unfiltered.run(duration_s=duration)
        candidates_unfiltered = [len(r.candidates) for r in firm_unfiltered.rounds if r.slo_violated]
        return {
            "filtered": candidates_filtered,
            "unfiltered": candidates_unfiltered,
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    mean_filtered = float(np.mean(results["filtered"])) if results["filtered"] else 0.0
    mean_unfiltered = float(np.mean(results["unfiltered"])) if results["unfiltered"] else 0.0

    print("\n=== Ablation: SVM filter (candidates per violation round) ===")
    print(f"two-level (filtered): {mean_filtered:.1f}")
    print(f"RL-only (unfiltered): {mean_unfiltered:.1f}")
    print("(paper: the filter keeps the RL stage small and architecture-agnostic)")
    save_result(results_dir, "ablation_svm_filter", {
        "filtered_mean_candidates": mean_filtered,
        "unfiltered_mean_candidates": mean_unfiltered,
    })
    assert mean_filtered <= mean_unfiltered + 1e-9


def test_bench_ablation_transfer_learning(benchmark, results_dir):
    """Transfer-initialized agents start from the shared policy."""

    def run() -> dict:
        source = DDPGAgent(DDPGConfig(seed=5))
        rng = np.random.default_rng(0)
        # Give the source agent some training so its policy is non-trivial.
        for _ in range(200):
            state = rng.normal(size=8)
            action = source.act(state, explore=True)
            source.remember(state, action, float(rng.uniform(0, 5)), rng.normal(size=8))
            source.train_step()
        transferred = transfer_agent(source)
        fresh = DDPGAgent(DDPGConfig(seed=99))
        probe = rng.normal(size=(32, 8))
        transfer_gap = float(np.mean(np.abs(
            np.vstack([transferred.act(s, explore=False) for s in probe])
            - np.vstack([source.act(s, explore=False) for s in probe])
        )))
        fresh_gap = float(np.mean(np.abs(
            np.vstack([fresh.act(s, explore=False) for s in probe])
            - np.vstack([source.act(s, explore=False) for s in probe])
        )))
        return {"transfer_gap": transfer_gap, "fresh_gap": fresh_gap}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n=== Ablation: transfer learning initialization ===")
    print(f"policy distance transferred vs source: {results['transfer_gap']:.4f}")
    print(f"policy distance fresh agent vs source: {results['fresh_gap']:.4f}")
    save_result(results_dir, "ablation_transfer", results)
    assert results["transfer_gap"] < results["fresh_gap"]
