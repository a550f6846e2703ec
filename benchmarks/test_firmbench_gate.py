"""The firmbench gate's comparator on canned firmbench result lines."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from firmbench_gate import compare, parse_result

pytestmark = [pytest.mark.smoke]

DECLARED = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def _line(run_s, correct=True, attempted=12, failed=0):
    """The last stdout line of one firmbench run, after a per-workload line."""
    metrics = {
        "steady.run_s": {"value": run_s, "unit": "s"},
        "steady.peak_rss_mb": {"value": 60.0, "unit": "MiB"},
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return parse_result(json.dumps({"workload": "steady"}) + "\n" + json.dumps(result) + "\n")


BASE = [_line(run_s) for run_s in (2.0, 2.1, 1.9)]


def test_head_past_a_bound_fails_and_names_the_metric():
    # run_s's bound is 0.20; the head median is 30% slower.
    report, failures = compare(BASE, [_line(run_s) for run_s in (2.6, 2.7, 2.5)], DECLARED)
    assert len(failures) == 1 and failures[0].startswith("steady.run_s:")
    assert any(line.startswith("steady.run_s:") and "REGRESSION" in line for line in report)


def test_head_within_the_bound_passes():
    report, failures = compare(BASE, [_line(run_s) for run_s in (2.3, 2.2, 1.8)], DECLARED)
    assert failures == []
    assert len(report) == 2


def test_head_reporting_incorrect_fails():
    head = [_line(2.0), _line(2.0, correct=False, failed=1), _line(2.0)]
    _, failures = compare(BASE, head, DECLARED)
    assert "head run 1 is not correct: firmbench reports correct: false" in failures


def test_head_with_more_failed_runs_fails():
    head = [_line(2.0), _line(2.0, failed=2), _line(2.0)]
    _, failures = compare(BASE, head, DECLARED)
    assert any("head failed 5.6% of its runs, base 0.0%" in failure for failure in failures)


def test_head_without_a_result_fails():
    _, failures = compare(BASE, [_line(2.0), parse_result("Traceback ...\n"), _line(2.0)], DECLARED)
    assert any(failure.startswith("head run 1 is not correct: ") for failure in failures)
