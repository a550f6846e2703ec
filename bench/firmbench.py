"""firmbench: end-to-end and per-layer host-time benchmark of the simulator.

Run from the repository root::

    python3 bench/firmbench.py --workload steady --seed 0 --seconds 25 --trace 0
    python3 bench/firmbench.py --seed 0 --seconds 120    # every workload and metric
    python3 bench/firmbench.py --pin                     # rewrite bench/expected.json

Each run of a workload simulates one scenario in a fresh
``python3 bench/firmrun.py`` process, and only one runs at a time.  Untraced
runs repeat, in rounds across the chosen workloads, until ``--seconds``
would be exceeded (at least :data:`MIN_ROUNDS`); round ``i`` runs scenario
``i`` of each workload, cycling through its :func:`scenario_seeds`.  They
give the end-to-end metrics.  One traced round, of each workload's first
scenario, then gives the per-layer metrics.  ``--trace 0`` prints only the end-to-end
metrics and ``--trace 1`` only the per-layer ones; without ``--trace`` both
are printed.  Metric names and units come from ``BENCHMARK.json``.

Every run's model outputs are checked and digested; a run fails when it
raises, fails a check, or its digest differs from ``bench/expected.json``
(pinned seeds) or from the other runs of its scenario.  The last stdout line
is ``{"correct", "attempted", "failed", "metrics"}``; the lines before it
give each workload's model outputs, digests and metric sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import hostprobe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED_PATH = BENCH_DIR / "expected.json"

#: Scenarios, each with its own seed, that one benchmark seed of a workload
#: runs (see :func:`scenario_seeds`).  How far FIRM scales out, and with it
#: the host cost of a firm_colocated run, differs by a tenth and more from
#: seed to seed; averaging three scenarios narrows that.
SCENARIOS: Dict[str, int] = {
    "steady": 1,
    "firm_colocated": 3,
    "replica_fleet": 1,
    "overload_admission": 1,
}
WORKLOADS = tuple(SCENARIOS)
PINNED_SEEDS = (0, 1, 2)

#: Untraced runs per workload at least: one of every scenario, and three of
#: a workload with one scenario.
MIN_ROUNDS = 3

#: A traced run takes up to this multiple of an untraced run's wall time.
TRACE_COST = 1.5

#: A run that has not ended after this many seconds is killed and failed.
#: Runs take 4-13 s, slow spells of the host included; four timeouts still
#: end one workload's invocation within three minutes.
RUN_TIMEOUT_S = 40.0

#: Layers whose self time is reported: the ones every workload runs.  The
#: others run on some workloads only and report span counts and shares.
TIMED_LAYERS = (
    "sim",
    "workload",
    "apps",
    "routing",
    "cluster.instance",
    "cluster.node",
    "tracing",
    "metrics",
    "cluster.telemetry",
    "experiments",
)

Record = Dict[str, object]
#: A launched run: its record, or None and why it produced none.
Launch = Tuple[Optional[Record], str]
#: Metric name -> (value, sample count).
Values = Dict[str, Tuple[float, int]]


def launch(workload: str, seed: int, traced: bool) -> Launch:
    """One run in a fresh single-threaded process, waited for."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [sys.executable, str(BENCH_DIR / "firmrun.py"), workload, str(seed), str(int(traced))]
    try:
        proc = subprocess.run(
            command, env=env, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {RUN_TIMEOUT_S:g} s"
    if proc.returncode != 0:
        return None, f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (IndexError, ValueError):
        return None, f"no run record on stdout: {proc.stdout[-500:]!r}"


def scenario_seeds(workload: str, seed: int) -> List[int]:
    """Seeds of the scenarios that benchmark seed ``seed`` of ``workload`` runs."""
    count = SCENARIOS[workload]
    return [seed * count + index for index in range(count)]


def judge(launches: List[Launch], expected: Dict[str, str]) -> List[str]:
    """Why each run failed ("" when it passed).

    A run's digest is compared with ``expected`` when its scenario seed is
    pinned there, else with the first good run of its scenario seed.
    """
    references = dict(expected)
    reasons = []
    for record, reason in launches:
        if record is not None:
            if record["problems"]:
                reason = "; ".join(record["problems"])
            else:
                reference = references.setdefault(str(record["seed"]), record["digest"])
                if record["digest"] != reference:
                    reason = f"digest {record['digest']} != {reference}"
        reasons.append(reason)
    return reasons


def typical_runs(runs: List[Record]) -> Dict[int, List[float]]:
    """Per scenario seed, each slice's median over its runs, at reference speed."""
    slices: Dict[int, List[List[float]]] = {}
    for r in runs:
        scaled = hostprobe.at_reference_speed(r["slice_s"], r["slice_probe_s"])
        slices.setdefault(r["seed"], []).append(scaled)
    return {
        seed: [statistics.median(times) for times in zip(*runs_of_seed)]
        for seed, runs_of_seed in slices.items()
    }


def end_to_end(runs: List[Record]) -> Values:
    """End-to-end metrics over the good untraced runs of one workload.

    Every build and slice time is first put at reference-host speed
    (:func:`hostprobe.at_reference_speed`), and each scenario's runs are
    reduced to one typical run (:func:`typical_runs`).  ``run_s`` is the
    mean of the typical runs' totals, and the ``sim_ms`` quantiles range
    over all their slices; ``setup_s`` is the median of all builds.
    """
    typical = list(typical_runs(runs).values())
    slice_sim_s = runs[0]["duration_s"] / len(typical[0])
    sim_ms = [1000.0 * seconds / slice_sim_s for run in typical for seconds in run]
    builds = [
        seconds
        for r in runs
        for seconds in hostprobe.at_reference_speed(r["setup_s"], r["setup_probe_s"])
    ]
    return {
        "setup_s": (statistics.median(builds), len(builds)),
        "run_s": (statistics.fmean(sum(run) for run in typical), len(runs)),
        "sim_ms_p50": (statistics.median(sim_ms), len(sim_ms)),
        "sim_ms_p90": (statistics.quantiles(sim_ms, n=10)[8], len(sim_ms)),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), len(runs)),
    }


def per_layer(runs: List[Record], traced: Record) -> Values:
    """Per-layer metrics from one traced run, plus counters of an untraced run.

    ``runs`` are the good untraced runs of the traced run's scenario seed.
    Layer self times are scaled by the traced run's own slowdown: its
    total at reference speed over its host total.
    """
    run_s = sum(hostprobe.at_reference_speed(traced["slice_s"], traced["slice_probe_s"]))
    speed = run_s / sum(traced["slice_s"])
    self_s = {layer: seconds * speed for layer, seconds in traced["layers"]["self_s"].items()}
    self_s["sim"] = run_s - sum(self_s.values())
    values = {}
    for layer, seconds in self_s.items():
        values[f"{layer}.share_pct"] = (100.0 * seconds / run_s, 1)
        if layer in TIMED_LAYERS:
            values[f"{layer}.self_s"] = (seconds, 1)
        if layer != "sim":
            values[f"{layer}.calls"] = (traced["layers"]["calls"][layer], 1)
    values.update((name, (value, 1)) for name, value in runs[0]["counters"].items())
    (untraced,) = typical_runs(runs).values()
    values["trace.overhead_pct"] = (100.0 * (run_s / sum(untraced) - 1.0), len(runs) + 1)
    return values


def measure(
    workloads: List[str], seed: int, seconds: float, with_traced: bool
) -> Tuple[Dict[str, List[Launch]], Dict[str, Launch]]:
    """Untraced rounds until ``seconds`` would be exceeded, then a traced round.

    Round ``i`` runs scenario ``i`` of each workload, cycling through its
    :func:`scenario_seeds`; the traced round runs the first.
    """
    scenarios = {workload: scenario_seeds(workload, seed) for workload in workloads}
    untraced: Dict[str, List[Launch]] = {workload: [] for workload in workloads}
    start = time.monotonic()
    rounds = 0
    while True:
        round_start = time.monotonic()
        for workload, seeds in scenarios.items():
            untraced[workload].append(launch(workload, seeds[rounds % len(seeds)], traced=False))
        rounds += 1
        round_s = time.monotonic() - round_start
        needed = round_s * (1.0 + TRACE_COST if with_traced else 1.0)
        if rounds >= MIN_ROUNDS and time.monotonic() - start + needed > seconds:
            break
    traced = {}
    if with_traced:
        traced = {w: launch(w, seeds[0], traced=True) for w, seeds in scenarios.items()}
    return untraced, traced


def load_json(path: Path) -> Dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def pin() -> int:
    """Rewrite bench/expected.json: one fresh untraced run per scenario of each pinned seed."""
    expected: Dict[str, Dict[str, str]] = {}
    for workload in WORKLOADS:
        expected[workload] = {}
        for seed in PINNED_SEEDS:
            for scenario in scenario_seeds(workload, seed):
                record, reason = launch(workload, scenario, traced=False)
                if record is None or record["problems"]:
                    problem = reason or record["problems"]
                    print(f"{workload} scenario seed {scenario}: {problem}", file=sys.stderr)
                    return 1
                expected[workload][str(scenario)] = record["digest"]
                print(f"{workload} scenario seed {scenario}: {record['digest']}", file=sys.stderr)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0, help="untraced-run budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: both metric sets")
    parser.add_argument("--pin", action="store_true", help="rewrite bench/expected.json")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"firmbench: simulator sources not found at {SRC / 'repro'}", file=sys.stderr)
        return 2
    if args.pin:
        return pin()

    declared = load_json(ROOT / "BENCHMARK.json")
    units = {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer") for m in declared[kind]}
    kinds = {0: ["end_to_end"], 1: ["per_layer"]}.get(args.trace, ["end_to_end", "per_layer"])
    wanted = [m["name"] for kind in kinds for m in declared[kind]]
    pinned = load_json(EXPECTED_PATH)
    workloads = [args.workload] if args.workload else list(WORKLOADS)

    untraced, traced = measure(workloads, args.seed, args.seconds, args.trace != 0)
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        launches = untraced[workload] + ([traced[workload]] if workload in traced else [])
        reasons = judge(launches, pinned.get(workload, {}))
        attempted += len(launches)
        failed += sum(1 for reason in reasons if reason)
        for reason in filter(None, reasons):
            print(f"firmbench: {workload}: run failed: {reason}", file=sys.stderr)
        good = [record for (record, _), reason in zip(launches, reasons) if not reason]
        good_untraced = [record for record in good if not record["traced"]]
        scenarios = {record["seed"] for record in good_untraced}
        if len(scenarios) < SCENARIOS[workload] or (
            workload in traced and not (good[-1]["traced"] and good[-1]["seed"] in scenarios)
        ):
            print(f"firmbench: {workload}: too few good runs to measure", file=sys.stderr)
            return 1
        values = end_to_end(good_untraced)
        if workload in traced:
            same_scenario = [r for r in good_untraced if r["seed"] == good[-1]["seed"]]
            values.update(per_layer(same_scenario, good[-1]))
        prefix = "" if args.workload else f"{workload}."
        for name in wanted:
            metrics[prefix + name] = {"value": values[name][0], "unit": units[name]}
        first = {}
        for record in good_untraced:
            first.setdefault(record["seed"], record)
        detail = {
            "workload": workload,
            "seed": args.seed,
            "digests": {seed: record["digest"] for seed, record in first.items()},
            "outputs": {seed: record["outputs"] for seed, record in first.items()},
            "samples": {name: values[name][1] for name in wanted},
            "each_run_s": [[r["seed"], sum(r["slice_s"])] for r in good_untraced],
            "slowdown": statistics.median(
                probe / hostprobe.REFERENCE_S for r in good_untraced for probe in r["slice_probe_s"]
            ),
        }
        print(json.dumps(detail))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
