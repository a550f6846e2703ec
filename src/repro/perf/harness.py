"""Timed execution, reports, baselines, and regression comparison.

The harness runs each :class:`~repro.perf.scenarios.MacroBenchmark`
through the exact code path experiments use
(:meth:`ExperimentHarness.from_spec` + :meth:`run`) and measures:

* **events/sec** — engine events processed per wall-clock second, the
  headline simulator-throughput metric;
* **requests/sec** — completed end-to-end requests per wall-clock second;
* **peak RSS** — the process's high-water memory mark (``ru_maxrss``),
  which is monotonic across benchmarks in one process, so it is sampled
  once per report rather than per benchmark;
* a **calibration score** — a straight-line Python work-rate probe used
  to normalize committed baselines across machines of different speeds.

Reports serialize to ``perf.json``; :func:`compare_reports` flags any
benchmark whose calibration-normalized events/sec drops more than
:data:`REGRESSION_THRESHOLD` below the committed baseline.
"""

from __future__ import annotations

import cProfile
import gc
import io
import json
import platform
import pstats
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.perf.scenarios import MACRO_BENCHMARKS, MacroBenchmark, calibration_score

#: The committed baseline the CI perf-smoke job compares against.
DEFAULT_BASELINE_PATH = (
    Path(__file__).resolve().parents[3] / "benchmarks" / "results" / "perf.json"
)

#: Fractional drop in normalized events/sec that counts as a regression.
REGRESSION_THRESHOLD = 0.20


@dataclass
class BenchmarkResult:
    """Measured throughput of one macro benchmark."""

    name: str
    description: str
    quick: bool
    sim_duration_s: float
    scenarios: int
    wall_s: float
    events: int
    requests: int
    events_per_s: float
    requests_per_s: float
    #: events/sec divided by the host calibration score (dimensionless;
    #: comparable across machines).
    normalized_events: float
    #: Benchmark-specific extra measurements (e.g. the telemetry_fleet
    #: retained footprint).  Never part of the regression gate.
    extras: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "name": self.name,
            "description": self.description,
            "quick": self.quick,
            "sim_duration_s": self.sim_duration_s,
            "scenarios": self.scenarios,
            "wall_s": round(self.wall_s, 4),
            "events": self.events,
            "requests": self.requests,
            "events_per_s": round(self.events_per_s, 1),
            "requests_per_s": round(self.requests_per_s, 2),
            "normalized_events": round(self.normalized_events, 6),
        }
        if self.extras:
            payload["extras"] = self.extras
        return payload


@dataclass
class PerfReport:
    """One full perf run: per-benchmark results plus host metadata."""

    benchmarks: Dict[str, BenchmarkResult]
    calibration: float
    peak_rss_mb: float
    python: str = field(default_factory=platform.python_version)
    platform_tag: str = field(default_factory=platform.platform)
    profile_top: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "schema": "repro.perf/1",
            "python": self.python,
            "platform": self.platform_tag,
            "calibration_iters_per_s": round(self.calibration, 1),
            "peak_rss_mb": round(self.peak_rss_mb, 1),
            "benchmarks": {
                name: result.as_dict() for name, result in sorted(self.benchmarks.items())
            },
        }
        if self.profile_top is not None:
            payload["profile_top"] = self.profile_top.splitlines()
        return payload


def _peak_rss_mb() -> float:
    """Process peak RSS in MiB (0.0 where the resource module is absent)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX fallback
        return 0.0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def _telemetry_memory_mb(harness) -> float:
    """Retained telemetry+trace footprint of one finished harness (MiB).

    Sums the collector's samples/sketches with every tenant
    coordinator's traces, sketches, and reservoir — the structures the
    streaming-sketch pipeline bounds — via their ``memory_bytes()``
    deep-size walks.  Unlike ``ru_maxrss`` (process-monotonic high-water
    mark) this measures what is actually *held alive*, so two runs in
    one process stay comparable.
    """
    total = harness.telemetry.memory_bytes()
    for tenant in harness.tenants:
        total += tenant.coordinator.memory_bytes()
    return total / (1024.0 * 1024.0)


def _overhead_extras(specs, per_spec) -> Dict[str, object]:
    """The observability-overhead extras for a measure_overhead benchmark.

    ``per_spec`` pairs each spec with its ``(wall_s, events)`` measured
    inside the shared timed window; the extras report per-mode events/sec
    plus the relative slowdown of the ``observability=True`` spec.
    """
    rates: Dict[str, float] = {}
    for spec, (wall, events) in zip(specs, per_spec):
        mode = "on" if getattr(spec, "observability", False) else "off"
        rates[mode] = events / max(wall, 1e-9)
    extras: Dict[str, object] = {
        "events_per_s_off": round(rates.get("off", 0.0), 1),
        "events_per_s_on": round(rates.get("on", 0.0), 1),
    }
    if rates.get("off") and rates.get("on"):
        extras["overhead_pct"] = round(
            (rates["off"] - rates["on"]) / rates["off"] * 100.0, 2
        )
    return extras


def _run_benchmark(
    benchmark: MacroBenchmark, quick: bool, profiler: Optional[cProfile.Profile]
) -> BenchmarkResult:
    """Build and run every scenario of one benchmark, timed end to end.

    Harness construction happens outside the timed window — the metric is
    simulator throughput, not application-import cost.  Sharded
    benchmarks (``benchmark.shards >= 2``) likewise keep worker-process
    spawn and per-shard harness construction untimed
    (:meth:`ShardedScenarioRunner.prepare`) and time only the
    window-barrier execution loop; their event count sums every shard
    engine's processed events.
    """
    from repro.experiments.harness import ExperimentHarness
    from repro.experiments.sharded import ShardedScenarioRunner

    specs = benchmark.specs(quick=quick)
    sharded = benchmark.shards > 1
    if sharded:
        runners = [ShardedScenarioRunner(spec, benchmark.shards) for spec in specs]
        for runner in runners:
            runner.prepare()
    else:
        harnesses = [ExperimentHarness.from_spec(spec) for spec in specs]
    events = 0
    requests = 0
    sim_duration = 0.0
    # Cyclic GC pauses land arbitrarily inside the timed window and are
    # the dominant run-to-run noise (±20% observed with GC on, ±5% off).
    # Refcounting still reclaims almost everything a simulation allocates,
    # so pausing collection for the measurement is safe.
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    if profiler is not None:
        profiler.enable()
    start = time.perf_counter()
    try:
        if sharded:
            for spec, runner in zip(specs, runners):
                result = runner.execute()
                events += runner.processed_events
                requests += int(result.slo.completed)
                sim_duration += spec.duration_s
        else:
            per_spec: List[tuple] = []
            for spec, harness in zip(specs, harnesses):
                spec_start = time.perf_counter()
                result = harness.run(
                    duration_s=spec.duration_s,
                    sample_period_s=spec.sample_period_s,
                    warmup_s=spec.warmup_s,
                )
                spec_wall = time.perf_counter() - spec_start
                events += harness.engine.processed_events
                requests += int(result.slo.completed)
                sim_duration += spec.duration_s
                per_spec.append((spec_wall, harness.engine.processed_events))
        wall = time.perf_counter() - start
    finally:
        if profiler is not None:
            profiler.disable()
        if gc_was_enabled:
            gc.enable()
        if sharded:
            for runner in runners:
                runner.close()
    wall = max(wall, 1e-9)
    extras: Dict[str, object] = {}
    if benchmark.measure_memory and not sharded:
        # Outside the timed window: the deep-size walk is O(retained
        # objects) and must not pollute the throughput measurement.
        extras["telemetry_trace_mb"] = round(
            sum(_telemetry_memory_mb(harness) for harness in harnesses), 4
        )
    if benchmark.measure_overhead and not sharded:
        extras.update(_overhead_extras(specs, per_spec))
    return BenchmarkResult(
        name=benchmark.name,
        description=benchmark.description,
        quick=quick,
        sim_duration_s=sim_duration,
        scenarios=len(specs),
        wall_s=wall,
        events=events,
        requests=requests,
        events_per_s=events / wall,
        requests_per_s=requests / wall,
        normalized_events=0.0,  # filled in by run_perf once calibrated
        extras=extras,
    )


def run_perf(
    quick: bool = False,
    benchmarks: Optional[Sequence[str]] = None,
    profile: bool = False,
    profile_top_n: int = 25,
    repeats: int = 1,
) -> PerfReport:
    """Run the macro benchmarks and return a :class:`PerfReport`.

    Parameters
    ----------
    quick:
        Use each benchmark's short CI duration instead of the full one.
    benchmarks:
        Subset of benchmark names (default: all of
        :data:`~repro.perf.scenarios.MACRO_BENCHMARKS`).
    profile:
        Run everything under :mod:`cProfile` and attach the top
        ``profile_top_n`` functions by cumulative time to the report.
        Profiling slows the run down several-fold; profiled numbers are
        for hot-spot hunting, never for baselines.
    repeats:
        Run each benchmark this many times and keep the repeat with the
        **median** calibration-normalized throughput — the median is
        robust against slow outliers (transient host load) *and* fast
        ones (turbo bursts during the calibration probe), either of
        which would poison a committed baseline.  CI and baseline
        updates should use ``repeats >= 3``.
    """
    names = list(benchmarks) if benchmarks else list(MACRO_BENCHMARKS)
    unknown = [name for name in names if name not in MACRO_BENCHMARKS]
    if unknown:
        raise ValueError(
            f"unknown perf benchmark(s) {unknown}; available: {sorted(MACRO_BENCHMARKS)}"
        )
    repeats = max(1, int(repeats))
    profiler = cProfile.Profile() if profile else None
    results: Dict[str, BenchmarkResult] = {}
    calibration = 0.0
    for name in names:
        attempts: List[BenchmarkResult] = []
        for _ in range(repeats):
            # Pair each repeat with its own calibration probe, taken
            # immediately before the timed run: the normalized ratio of
            # temporally adjacent measurements is stable (~±5%) even when
            # the host's absolute speed drifts between processes (turbo,
            # co-tenancy), which raw events/sec is not.
            probe = calibration_score()
            calibration = max(calibration, probe)
            result = _run_benchmark(MACRO_BENCHMARKS[name], quick=quick, profiler=profiler)
            result.normalized_events = result.events_per_s / probe if probe > 0 else 0.0
            attempts.append(result)
        attempts.sort(key=lambda result: result.normalized_events)
        results[name] = attempts[len(attempts) // 2]

    profile_top: Optional[str] = None
    if profiler is not None:
        buffer = io.StringIO()
        stats = pstats.Stats(profiler, stream=buffer).sort_stats("cumulative")
        stats.print_stats(profile_top_n)
        profile_top = buffer.getvalue()

    return PerfReport(
        benchmarks=results,
        calibration=calibration,
        peak_rss_mb=_peak_rss_mb(),
        profile_top=profile_top,
    )


# ---------------------------------------------------------------- reports
def save_report(report: PerfReport, path: Path) -> None:
    """Write a report as indented JSON (the committed-baseline format)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report.as_dict(), handle, indent=2)
        handle.write("\n")


def load_report(path: Path) -> Dict[str, object]:
    """Load a previously saved report (raw dict; tolerant of old schemas)."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


@dataclass
class Comparison:
    """Outcome of comparing one metric against the baseline.

    Most comparisons are per-benchmark normalized events/sec (higher is
    better; ``regressed`` when the ratio drops below ``1 - threshold``).
    The report-level ``peak_rss_mb`` comparison inverts the sense: lower
    is better, and it regresses when current RSS *exceeds* the baseline
    by more than the memory threshold.
    """

    name: str
    baseline_normalized: float
    current_normalized: float
    ratio: float
    regressed: bool

    def describe(self) -> str:
        verdict = "REGRESSION" if self.regressed else "ok"
        return (
            f"{self.name}: {self.ratio:.2f}x of baseline "
            f"({self.current_normalized:.6g} vs "
            f"{self.baseline_normalized:.6g}) [{verdict}]"
        )


#: Where the CI shard-scaling artifact is written.
DEFAULT_SCALING_PATH = (
    Path(__file__).resolve().parents[3] / "benchmarks" / "results" / "scaling.json"
)


def run_shard_scaling(
    shard_counts: Sequence[int] = (1, 2, 4),
    quick: bool = False,
    duration_s: Optional[float] = None,
) -> Dict[str, object]:
    """Measure events/sec of one scenario across shard counts.

    Runs :func:`~repro.perf.scenarios.scaling_spec` (four identical
    co-located tenants) at every shard count — ``1`` on the classic
    single-engine path, ``>= 2`` on the sharded engine with process
    workers — and returns the scaling curve as a JSON-ready dict (use
    :func:`save_scaling` to write the committed/CI artifact).  Each point
    carries its own calibration probe so curves from different machines
    remain comparable through ``normalized_events``.

    Note the curve measures *simulator* scaling: on a single-core host
    shards >= 2 mostly pay synchronization overhead, while multi-core
    hosts see near-linear gains until shards exceed cores (or tenants).
    """
    from repro.experiments.harness import ExperimentHarness
    from repro.experiments.sharded import ShardedScenarioRunner
    from repro.perf.scenarios import scaling_spec

    duration = duration_s if duration_s is not None else (5.0 if quick else 15.0)
    points: List[Dict[str, object]] = []
    for shards in shard_counts:
        shards = int(shards)
        spec = scaling_spec(duration)
        probe = calibration_score()
        if shards <= 1:
            harness = ExperimentHarness.from_spec(spec)
            start = time.perf_counter()
            harness.run(
                duration_s=spec.duration_s,
                sample_period_s=spec.sample_period_s,
                warmup_s=spec.warmup_s,
            )
            wall = max(time.perf_counter() - start, 1e-9)
            events = harness.engine.processed_events
        else:
            runner = ShardedScenarioRunner(spec, shards)
            try:
                runner.prepare()
                start = time.perf_counter()
                runner.execute()
                wall = max(time.perf_counter() - start, 1e-9)
                events = runner.processed_events
            finally:
                runner.close()
        points.append(
            {
                "shards": shards,
                "sim_duration_s": duration,
                "wall_s": round(wall, 4),
                "events": events,
                "events_per_s": round(events / wall, 1),
                "normalized_events": round(events / wall / probe, 6) if probe > 0 else 0.0,
            }
        )
    return {
        "schema": "repro.perf.scaling/1",
        "scenario": "scaling_spec(4 identical tenants, hotel_reservation)",
        "quick": quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "points": points,
    }


def save_scaling(curve: Dict[str, object], path: Path = DEFAULT_SCALING_PATH) -> None:
    """Write a shard-scaling curve as indented JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(curve, handle, indent=2)
        handle.write("\n")


#: Fractional peak-RSS growth over the baseline that counts as a memory
#: regression.  Looser than the throughput threshold: RSS is a process
#: high-water mark, so it absorbs allocator and import noise that
#: events/sec does not.
RSS_REGRESSION_THRESHOLD = 0.30


def compare_reports(
    current: PerfReport,
    baseline: Dict[str, object],
    threshold: float = REGRESSION_THRESHOLD,
    rss_threshold: float = RSS_REGRESSION_THRESHOLD,
) -> List[Comparison]:
    """Compare calibration-normalized events/sec against a baseline dict.

    Only benchmarks present in both reports are compared (so adding a new
    macro benchmark does not instantly fail CI before its baseline is
    committed).  A benchmark regresses when its normalized throughput is
    more than ``threshold`` below the baseline's.

    When both reports carry a positive report-level ``peak_rss_mb``, a
    final ``peak_rss_mb`` comparison gates memory too: it regresses when
    the current high-water mark exceeds the baseline's by more than
    ``rss_threshold`` (pass ``rss_threshold=None`` to skip the memory
    gate, e.g. when comparing runs of different benchmark subsets, whose
    peak RSS is not comparable).
    """
    baseline_benchmarks = baseline.get("benchmarks", {})
    comparisons: List[Comparison] = []
    for name, result in sorted(current.benchmarks.items()):
        entry = baseline_benchmarks.get(name)
        if not isinstance(entry, dict):
            continue
        baseline_normalized = float(entry.get("normalized_events", 0.0))
        if baseline_normalized <= 0:
            continue
        ratio = result.normalized_events / baseline_normalized
        comparisons.append(
            Comparison(
                name=name,
                baseline_normalized=baseline_normalized,
                current_normalized=result.normalized_events,
                ratio=ratio,
                regressed=ratio < (1.0 - threshold),
            )
        )
    if rss_threshold is not None:
        baseline_rss = float(baseline.get("peak_rss_mb", 0.0) or 0.0)
        if baseline_rss > 0 and current.peak_rss_mb > 0:
            ratio = current.peak_rss_mb / baseline_rss
            comparisons.append(
                Comparison(
                    name="peak_rss_mb",
                    baseline_normalized=baseline_rss,
                    current_normalized=current.peak_rss_mb,
                    ratio=ratio,
                    regressed=ratio > (1.0 + rss_threshold),
                )
            )
    return comparisons
