"""firmbench gate: fail a change whose end-to-end benchmark metrics regress.

Run from the repository root, with two checkouts of the repository::

    python3 benchmarks/firmbench_gate.py BASE_CHECKOUT HEAD_CHECKOUT

CI puts the base commit in a ``git worktree`` and passes the job's own
checkout as the head.  For :data:`PAIRS` pairs, each on its own seed and in
alternating side order, the gate runs each checkout's own
``bench/firmbench.py --seconds SECONDS --trace 0`` (see ``bench/README.md``).
It then takes, per ``workload.metric``, the median over each side's runs,
and fails when a head median is worse than the base median by more than that
metric's ``bound`` in the base checkout's ``BENCHMARK.json``.  It also fails
when a head run reports ``correct: false`` or prints no result, or when the
head fails a larger share of its runs than the base.

Both sides run back to back on the same host, so no committed baseline is
involved and the verdict does not depend on the host's speed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Paired runs per side; pair ``i`` uses seed ``i`` (a pinned firmbench seed).
PAIRS = 3
#: firmbench's untraced-run budget per invocation.
SECONDS = 10

Result = Dict[str, object]


def parse_result(stdout: str) -> Optional[Result]:
    """The result object on firmbench's last stdout line, or None."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def run_firmbench(checkout: Path, seed: int) -> Optional[Result]:
    """One untraced firmbench invocation of every workload in ``checkout``."""
    command = [
        sys.executable,
        "bench/firmbench.py",
        "--seed",
        str(seed),
        "--seconds",
        str(SECONDS),
        "--trace",
        "0",
    ]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    return parse_result(proc.stdout)


def _medians(results: Sequence[Result]) -> Dict[str, float]:
    values: Dict[str, List[float]] = {}
    for result in results:
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(float(metric["value"]))
    return {name: statistics.median(samples) for name, samples in values.items()}


def _failed_share(results: Sequence[Result]) -> float:
    attempted = sum(int(result["attempted"]) for result in results)
    return sum(int(result["failed"]) for result in results) / attempted if attempted else 0.0


def compare(
    base: Sequence[Optional[Result]],
    head: Sequence[Optional[Result]],
    declared: Dict[str, object],
) -> Tuple[List[str], List[str]]:
    """Report lines and failures of the head's runs against the base's.

    ``base`` and ``head`` hold one firmbench result per pair (None where a
    run printed none); ``declared`` is ``BENCHMARK.json``.
    """
    failures = []
    for index, result in enumerate(head):
        if result is None:
            failures.append(
                f"head run {index} is not correct: firmbench printed no result "
                "(its failed runs are listed above)"
            )
        elif not result["correct"]:
            failures.append(f"head run {index} is not correct: firmbench reports correct: false")
    base_good = [result for result in base if result is not None]
    head_good = [result for result in head if result is not None]
    if len(base_good) < len(base):
        failures.append("a base run printed no firmbench result: nothing to compare against")
    base_share, head_share = _failed_share(base_good), _failed_share(head_good)
    if head_share > base_share:
        failures.append(f"head failed {head_share:.1%} of its runs, base {base_share:.1%}")

    bounds = {metric["name"]: metric for metric in declared["end_to_end"]}
    base_medians, head_medians = _medians(base_good), _medians(head_good)
    report = []
    for name in sorted(base_medians.keys() & head_medians.keys()):
        declared_metric = bounds.get(name.split(".", 1)[-1])
        if declared_metric is None:
            continue
        before, after = base_medians[name], head_medians[name]
        change = after / before - 1.0 if before else 0.0
        worse = change if declared_metric["better"] == "lower" else -change
        verdict = "ok"
        if worse > declared_metric["bound"]:
            verdict = "REGRESSION"
            failures.append(
                f"{name}: head median {after:.4g} vs base {before:.4g} "
                f"({change:+.1%}; bound {declared_metric['bound']:.0%})"
            )
        report.append(f"{name}: base {before:.4g} head {after:.4g} ({change:+.1%}) {verdict}")
    return report, failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout of the base commit")
    parser.add_argument("head", type=Path, help="checkout of the change")
    args = parser.parse_args(argv)

    runs: Dict[str, List[Optional[Result]]] = {"base": [], "head": []}
    for seed in range(PAIRS):
        order = ("base", "head") if seed % 2 == 0 else ("head", "base")
        for side in order:
            result = run_firmbench(getattr(args, side), seed)
            print(f"firmbench-gate: pair {seed} {side}: {json.dumps(result)}", flush=True)
            runs[side].append(result)
    with open(args.base / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    report, failures = compare(runs["base"], runs["head"], declared)
    for line in report:
        print(f"firmbench-gate: {line}")
    for failure in failures:
        print(f"firmbench-gate: FAIL: {failure}")
    print(f"firmbench-gate: {'FAIL' if failures else 'PASS'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
