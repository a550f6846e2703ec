"""Tests of the firmbench benchmark on 2-simulated-second workload variants."""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys

import pytest

import firmbench
import firmrun
import hostprobe
import layertrace
from repro.experiments.harness import ExperimentHarness
from repro.sim.engine import SimulationEngine

SHORT_S = 2.0
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _patched_attributes():
    targets = [(cls, name) for cls, names, _ in layertrace.ENTRY_POINTS for name in names]
    targets.append((SimulationEngine, "schedule"))
    return {(cls, name): cls.__dict__[name] for cls, name in targets}


#: The attributes the tracer patches, as they are before any traced run.
ORIGINALS = _patched_attributes()


@pytest.fixture(scope="module")
def records():
    """Short untraced and traced runs of every workload, seed 0."""
    return {
        (workload, traced): firmrun.run(workload, 0, traced=traced, duration_s=SHORT_S)
        for workload in firmbench.WORKLOADS
        for traced in (False, True)
    }


@pytest.mark.parametrize("workload", firmbench.WORKLOADS)
def test_outputs_pass_their_checks(records, workload):
    record = records[(workload, False)]
    assert record["problems"] == []
    assert len(record["setup_s"]) == len(record["setup_probe_s"]) - 1 == firmrun.SETUP_BUILDS
    assert len(record["slice_s"]) == len(record["slice_probe_s"]) - 1 == SHORT_S / firmrun.SLICE_S


@pytest.mark.parametrize("workload", firmbench.WORKLOADS)
def test_tracing_keeps_the_digest_and_restores_every_attribute(records, workload):
    traced = records[(workload, True)]
    assert _patched_attributes() == ORIGINALS
    assert traced["digest"] == records[(workload, False)]["digest"]
    assert traced["layers"]["calls"]["cluster.node"] > 0


def test_tracer_restores_attributes_when_the_run_raises():
    with pytest.raises(ZeroDivisionError):
        with layertrace.LayerTracer():
            assert _patched_attributes() != ORIGINALS
            raise ZeroDivisionError
    assert _patched_attributes() == ORIGINALS


@pytest.mark.parametrize("workload", firmbench.WORKLOADS)
def test_sliced_advance_matches_harness_run(records, workload):
    spec = firmrun.build_spec(workload, 0, SHORT_S)
    harness = ExperimentHarness.from_spec(spec)
    result = harness.run(
        duration_s=spec.duration_s, sample_period_s=spec.sample_period_s, warmup_s=spec.warmup_s
    )
    expected = firmrun.digest(firmrun.model_outputs(harness, result))
    assert records[(workload, False)]["digest"] == expected


@pytest.mark.parametrize("workload", firmbench.WORKLOADS)
def test_digest_does_not_depend_on_prior_builds(records, workload):
    alone = firmrun.run(workload, 0, duration_s=SHORT_S, builds=1)
    assert alone["digest"] == records[(workload, False)]["digest"]


def test_checks_flag_corrupted_admission_snapshots(records):
    outputs = records[("overload_admission", False)]["outputs"]
    assert firmrun.check_outputs(outputs, SHORT_S, SHORT_S) == []
    for key in ("shed", "in_flight"):
        corrupted = copy.deepcopy(outputs)
        corrupted["admission"][key] += 1
        assert firmrun.check_outputs(corrupted, SHORT_S, SHORT_S)
    per_tenant = copy.deepcopy(outputs)
    per_tenant["admission"] = {"victim": outputs["admission"], "other": outputs["admission"]}
    assert firmrun.check_outputs(per_tenant, SHORT_S, SHORT_S) == []
    per_tenant["admission"]["other"] = dict(outputs["admission"], admitted=0)
    assert firmrun.check_outputs(per_tenant, SHORT_S, SHORT_S)
    assert firmrun.check_outputs(outputs, SHORT_S - firmrun.SLICE_S, SHORT_S)


def test_judge_fails_problems_and_digest_mismatches(records):
    good = records[("steady", False)]
    other = dict(good, digest="0" * 64)
    broken = dict(good, problems=["no request completed"])
    assert firmbench.judge([(good, ""), (good, "")], {}) == ["", ""]
    assert firmbench.judge([(good, ""), (other, "")], {})[1]
    assert firmbench.judge([(good, "")], {"0": "0" * 64})[0]
    assert firmbench.judge([(good, "")], {"1": "0" * 64}) == [""]
    assert firmbench.judge([(good, ""), (dict(other, seed=1), "")], {}) == ["", ""]
    assert firmbench.judge([(broken, ""), (None, "exit code 1")], {}) == [
        "no request completed",
        "exit code 1",
    ]


@pytest.mark.parametrize("workload", firmbench.WORKLOADS)
def test_metrics_match_benchmark_json(records, workload):
    declared = json.loads((firmbench.ROOT / "BENCHMARK.json").read_text())
    untraced = [records[(workload, False)]]
    measured = {
        "end_to_end": firmbench.end_to_end(untraced),
        "per_layer": firmbench.per_layer(untraced, records[(workload, True)]),
    }
    for kind, values in measured.items():
        assert sorted(values) == sorted(m["name"] for m in declared[kind])
        for metric in declared[kind]:
            assert NAME.fullmatch(metric["name"]) and UNIT.fullmatch(metric["unit"])
    for name, (value, _) in measured["end_to_end"].items():
        assert value > 0, name


def test_times_are_scaled_by_the_probes_around_them():
    reference = hostprobe.REFERENCE_S
    slowed = 2.0 ** -hostprobe.SLOWDOWN_EXPONENT
    scaled = hostprobe.at_reference_speed([1.0, 3.0], [reference, reference, 3 * reference])
    assert scaled == [pytest.approx(1.0), pytest.approx(3.0 * slowed)]


def test_end_to_end_averages_the_typical_run_of_each_scenario():
    reference = hostprobe.REFERENCE_S
    slowed = 2.0 ** -hostprobe.SLOWDOWN_EXPONENT

    def run(seed, slice_s, probe_s, setup_s):
        return {
            "seed": seed,
            "duration_s": 1.0,
            "peak_rss_mb": 10.0 + seed,
            "setup_s": [setup_s],
            "setup_probe_s": [reference, reference],
            "slice_s": slice_s,
            "slice_probe_s": probe_s,
        }

    runs = [
        run(0, [1.0, 3.0], [reference] * 3, 0.4),
        run(0, [2.0, 2.0], [reference] * 3, 0.2),
        run(1, [1.0, 1.0], [2 * reference] * 3, 0.3),
    ]
    assert firmbench.typical_runs(runs) == {0: [1.5, 2.5], 1: [slowed, slowed]}
    values = firmbench.end_to_end(runs)
    assert values["setup_s"] == (pytest.approx(0.3), 3)
    assert values["run_s"] == (pytest.approx((4.0 + 2 * slowed) / 2), 3)
    assert values["sim_ms_p50"] == (pytest.approx((2000 * slowed + 3000) / 2), 4)
    assert values["peak_rss_mb"] == (10.0, 3)


def test_workload_lists_agree():
    declared = json.loads((firmbench.ROOT / "BENCHMARK.json").read_text())
    assert list(firmbench.WORKLOADS) == [w["name"] for w in declared["workloads"]]
    assert list(firmbench.WORKLOADS) == list(firmrun.DURATIONS_S)


def test_every_scenario_runs_within_the_minimum_rounds():
    assert firmbench.scenario_seeds("steady", 4) == [4]
    assert firmbench.scenario_seeds("firm_colocated", 0) == [0, 1, 2]
    assert firmbench.scenario_seeds("firm_colocated", 1) == [3, 4, 5]
    assert max(firmbench.SCENARIOS.values()) <= firmbench.MIN_ROUNDS


def test_every_workload_and_pinned_seed_has_a_digest():
    expected = json.loads(firmbench.EXPECTED_PATH.read_text())
    assert sorted(expected) == sorted(firmbench.WORKLOADS)
    for workload, digests in expected.items():
        scenarios = [
            str(scenario)
            for seed in firmbench.PINNED_SEEDS
            for scenario in firmbench.scenario_seeds(workload, seed)
        ]
        assert sorted(digests, key=int) == scenarios


def test_refuses_to_run_without_the_simulator_sources(tmp_path):
    shutil.copy(firmbench.ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(firmbench.BENCH_DIR, tmp_path / "bench", ignore=ignore)
    proc = subprocess.run(
        [sys.executable, "bench/firmbench.py", "--workload", "steady", "--seed", "0"],
        cwd=tmp_path,
        env={},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
