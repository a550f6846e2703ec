"""Tests for the streaming-sketch telemetry layer (``repro.telemetry``).

Covers log-histogram quantiles against ``numpy.percentile`` golden values
on pinned lognormal/bimodal streams, reservoir-sampling determinism under
a fixed seed, sketch-merge associativity across telemetry digests, and
the constant-memory guarantee of the telemetry pipeline at fleet scale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.rng import SeededRNG
from repro.telemetry import (
    LogHistogram,
    ReservoirSampler,
    TelemetryDigest,
    WindowedCoMoments,
    WindowedCounter,
    WindowedHistogram,
    merge_telemetry_digests,
)


def _lognormal_stream(n: int = 4000, seed: int = 7) -> np.ndarray:
    """A pinned heavy-tailed latency-like stream (ms scale)."""
    rng = np.random.default_rng(seed)
    return rng.lognormal(mean=3.0, sigma=0.8, size=n)


def _bimodal_stream(n: int = 4000, seed: int = 11) -> np.ndarray:
    """A pinned bimodal stream: a fast mode plus a slow 20% mode."""
    rng = np.random.default_rng(seed)
    fast = rng.normal(20.0, 3.0, size=n)
    slow = rng.normal(220.0, 25.0, size=n)
    choose_slow = rng.random(n) < 0.2
    return np.abs(np.where(choose_slow, slow, fast))


class TestLogHistogram:
    def test_quantile_relative_error_bound(self):
        stream = _lognormal_stream()
        hist = LogHistogram()
        hist.extend(stream.tolist())
        for pct in (50.0, 90.0, 99.0):
            exact = float(np.percentile(stream, pct))
            # Geometric bins with the default gamma guarantee ~±4%
            # relative error; allow a hair more for nearest-rank edges.
            assert hist.quantile(pct) == pytest.approx(exact, rel=0.06)

    def test_merge_is_associative_and_commutative(self):
        streams = [
            _lognormal_stream(seed=1),
            _lognormal_stream(seed=2),
            _bimodal_stream(seed=3),
        ]
        parts = []
        for stream in streams:
            hist = LogHistogram()
            hist.extend(stream.tolist())
            parts.append(hist)
        a, b, c = parts

        left = a.copy()
        left.merge(b)
        left.merge(c)

        bc = b.copy()
        bc.merge(c)
        right = a.copy()
        right.merge(bc)

        reversed_order = c.copy()
        reversed_order.merge(b)
        reversed_order.merge(a)

        # Bin counts are integers, so the merge is *exactly* associative
        # and commutative — the property the tenant digest fold relies on.
        assert left.counts == right.counts == reversed_order.counts
        assert left.count == right.count == sum(len(s) for s in streams)
        assert left.min == right.min and left.max == right.max

    def test_merge_rejects_mismatched_geometry(self):
        a = LogHistogram()
        b = LogHistogram(gamma=1.5)
        with pytest.raises(ValueError):
            a.merge(b)


class TestShardDigestMerge:
    def _digest(self, seed: int) -> TelemetryDigest:
        digest = TelemetryDigest()
        rng = np.random.default_rng(seed)
        for latency in rng.lognormal(3.0, 0.8, size=500):
            digest.observe_completion("compose", float(latency))
        for latency in rng.lognormal(2.0, 0.5, size=200):
            digest.observe_completion("read", float(latency))
        for _ in range(int(rng.integers(0, 20))):
            digest.observe_drop()
        return digest

    def test_fold_is_associative_across_shards(self):
        shards = [self._digest(seed) for seed in (0, 1, 2, 3)]

        merged_all = merge_telemetry_digests(shards)
        pair_left = merge_telemetry_digests(
            [merge_telemetry_digests(shards[:2]), merge_telemetry_digests(shards[2:])]
        )

        assert merged_all.completed == pair_left.completed
        assert merged_all.dropped == pair_left.dropped
        for request_type in merged_all.latency:
            assert (
                merged_all.latency[request_type].counts
                == pair_left.latency[request_type].counts
            )

    def test_merged_quantiles_track_pooled_stream(self):
        shards = [self._digest(seed) for seed in (0, 1)]
        merged = merge_telemetry_digests(shards)
        pooled = np.concatenate(
            [np.random.default_rng(seed).lognormal(3.0, 0.8, size=500) for seed in (0, 1)]
        )
        assert merged.latency["compose"].quantile(99.0) == pytest.approx(
            float(np.percentile(pooled, 99.0)), rel=0.06
        )

    def test_none_safe_fold(self):
        digest = self._digest(5)
        merged = merge_telemetry_digests([None, digest, None])
        assert merged is not None
        assert merged.completed == digest.completed


class TestReservoirSampler:
    def test_fixed_seed_is_deterministic(self):
        def fill(seed: int):
            sampler = ReservoirSampler(64, SeededRNG(seed).cursor("trace-reservoir"))
            for item in range(1000):
                sampler.offer(item)
            return list(sampler.items)

        assert fill(3) == fill(3)
        assert fill(3) != fill(4)

    def test_fills_then_displaces(self):
        sampler = ReservoirSampler(8, SeededRNG(0).cursor("trace-reservoir"))
        for item in range(8):
            assert sampler.offer(item) is None  # filling phase keeps all
        assert sorted(sampler.items) == list(range(8))
        displaced = sampler.offer(99)
        assert displaced is not None  # either a resident or 99 itself
        assert len(sampler.items) == 8

    def test_sampling_is_approximately_uniform(self):
        # Algorithm R keeps each of n offered items with probability k/n;
        # over many seeds the retained mean index is near the stream mean.
        means = []
        for seed in range(30):
            sampler = ReservoirSampler(32, SeededRNG(seed).cursor("trace-reservoir"))
            for item in range(2000):
                sampler.offer(item)
            means.append(float(np.mean(sampler.items)))
        assert float(np.mean(means)) == pytest.approx(999.5, rel=0.10)


class TestWindowedSketches:
    def test_counter_counts_only_window(self):
        counter = WindowedCounter(bucket_s=0.5, buckets=16)
        for t in np.arange(0.0, 10.0, 0.25):
            counter.add(float(t))
        # Bucket-aligned windows over-include at most one bucket width.
        count = counter.window_count(10.0, 2.0)
        assert 8 <= count <= 10

    def test_histogram_window_quantiles(self):
        hist = WindowedHistogram(bucket_s=1.0, buckets=32)
        for t in range(60):
            # Old samples (t < 50) are slow; recent ones fast: a window
            # over the tail must see only the fast regime.
            hist.add(float(t), 500.0 if t < 50 else 10.0)
        q50, q99 = hist.quantiles((50.0, 99.0), now=59.0, duration_s=8.0)
        assert q50 == pytest.approx(10.0, rel=0.1)
        assert q99 == pytest.approx(10.0, rel=0.1)

    def test_comoments_pearson_sign(self):
        pos = WindowedCoMoments(bucket_s=1.0, buckets=32)
        neg = WindowedCoMoments(bucket_s=1.0, buckets=32)
        rng = np.random.default_rng(0)
        for t in range(200):
            x = float(rng.random())
            pos.add(float(t % 30), x, 2.0 * x + 0.1 * float(rng.random()))
            neg.add(float(t % 30), x, -2.0 * x + 0.1 * float(rng.random()))
        assert pos.pearson(29.0, 30.0) > 0.9
        assert neg.pearson(29.0, 30.0) < -0.9


def _telemetry_memory_mb(harness) -> float:
    """Retained telemetry+trace footprint of one finished harness (MiB).

    Sums the collector's samples/sketches with every tenant
    coordinator's traces, sketches, and reservoir, via their
    ``memory_bytes()`` deep-size walks: what the run holds alive, not
    the process's high-water mark.
    """
    total = harness.telemetry.memory_bytes()
    for tenant in harness.tenants:
        total += tenant.coordinator.memory_bytes()
    return total / (1024.0 * 1024.0)


class TestFleetConstantMemory:
    def test_footprint_constant_in_run_length(self):
        """The streaming pipeline's constant-memory guarantee on the real
        harness code path.

        Runs a replicated social_network fleet (every service x3, which
        triples the containers the collector samples) at two durations
        3x apart and asserts the retained telemetry+trace footprint grows
        by at most 1.25x: the pipeline's memory is bounded by ring and
        reservoir sizes, not by how long the run lasted.
        """
        from repro.experiments.harness import ExperimentHarness
        from repro.experiments.routing import replicated_services
        from repro.experiments.scenario import ScenarioSpec

        footprints = []
        for duration_s in (20.0, 60.0):
            spec = ScenarioSpec(
                application="social_network",
                seed=0,
                duration_s=duration_s,
                load_rps=120.0,
                controller="none",
                replicas=replicated_services("social_network", 3),
            )
            harness = ExperimentHarness.from_spec(spec)
            harness.run(
                duration_s=spec.duration_s,
                sample_period_s=spec.sample_period_s,
                warmup_s=spec.warmup_s,
            )
            footprints.append(_telemetry_memory_mb(harness))
        short_mb, long_mb = footprints
        assert long_mb <= 1.25 * short_mb


def _instance_sketch_bytes(duration_s: float, rate_per_s: int = 30) -> int:
    """Retained size of :class:`InstanceSketches` after ``duration_s`` of
    synthetic traces, each with one span on every replica of four
    two-replica services."""
    from repro.telemetry.memory import deep_sizeof
    from repro.tracing.instance_sketch import InstanceSketches
    from repro.tracing.span import Span
    from repro.tracing.trace import Trace

    rng = np.random.default_rng(0)
    sketches = InstanceSketches()
    for index in range(int(duration_s * rate_per_s)):
        start = index / rate_per_s
        request = f"r{index}"
        trace = Trace(request, "main")
        for service in ("a", "b", "c", "d"):
            for replica in range(2):
                trace.add_span(Span(
                    request_id=request,
                    service=service,
                    instance=f"{service}#{replica}",
                    enqueue_time=start,
                    end_time=start + float(rng.lognormal(-5.0, 0.7)),
                ))
        sketches.fold(trace, start + 0.05, 50.0 + 10.0 * float(rng.random()))
    return deep_sizeof(sketches)


class TestInstanceSketchConstantMemory:
    def test_footprint_constant_in_run_length(self):
        """The per-instance rings' constant-memory guarantee.

        ``TestFleetConstantMemory`` runs no localization reader, so it no
        longer holds per-instance sketches.  Both durations outlast the
        rings' 32 s horizon (a shorter run has not filled them yet), so a
        5x longer run must not grow the footprint past 1.25x.
        """
        short, long = _instance_sketch_bytes(40.0), _instance_sketch_bytes(200.0)
        assert long <= 1.25 * short
