"""Tests for the streaming-sketch telemetry layer (``repro.telemetry``).

Covers P² quantile estimates against ``numpy.percentile`` golden values on
pinned lognormal/bimodal streams, reservoir-sampling determinism under a
fixed seed, sketch-merge associativity across shard digests, and the
constant-memory guarantee of the telemetry pipeline at fleet scale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.rng import SeededRNG
from repro.telemetry import (
    LogHistogram,
    P2Quantile,
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


class TestP2Quantile:
    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_lognormal_matches_numpy_percentile(self, q):
        stream = _lognormal_stream()
        estimator = P2Quantile(q)
        for x in stream:
            estimator.add(float(x))
        exact = float(np.percentile(stream, q * 100.0))
        # P² is an O(1)-memory estimate; on a smooth heavy-tailed stream
        # of 4k observations it lands within a few percent of exact.
        assert estimator.value() == pytest.approx(exact, rel=0.05)

    @pytest.mark.parametrize("q", [0.5, 0.9])
    def test_bimodal_matches_numpy_percentile(self, q):
        stream = _bimodal_stream()
        estimator = P2Quantile(q)
        for x in stream:
            estimator.add(float(x))
        exact = float(np.percentile(stream, q * 100.0))
        # Bimodal streams are the estimator's hard case (the parabolic
        # fit assumes local smoothness); the bound is looser but the
        # estimate must stay on the correct mode.
        assert estimator.value() == pytest.approx(exact, rel=0.25)

    def test_small_streams_are_exact(self):
        # Below five observations the estimator answers from the sorted
        # buffer with numpy-style linear interpolation — exactly.
        values = [9.0, 1.0, 5.0, 3.0]
        estimator = P2Quantile(0.5)
        for i, x in enumerate(values, start=1):
            estimator.add(x)
            exact = float(np.percentile(values[:i], 50.0))
            assert estimator.value() == pytest.approx(exact)

    def test_constant_stream(self):
        estimator = P2Quantile(0.99)
        for _ in range(100):
            estimator.add(42.0)
        assert estimator.value() == pytest.approx(42.0)

    def test_rejects_degenerate_quantile(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)


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
        # and commutative — the property the shard digest fold relies on.
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
        assert merged.latency_quantile_ms(99.0, "compose") == pytest.approx(
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


class TestFleetConstantMemory:
    def test_footprint_constant_in_run_length(self):
        """The telemetry_fleet guarantee on the real harness code path.

        Runs the replicated-fleet scenario at two durations 3x apart and
        asserts the retained telemetry+trace footprint (collector +
        coordinator/store/reservoir, via ``memory_bytes``) grows by at
        most 1.25x: the pipeline's memory is bounded by ring and
        reservoir sizes, not by how long the run lasted.
        """
        from repro.experiments.harness import ExperimentHarness
        from repro.perf.harness import _telemetry_memory_mb
        from repro.perf.scenarios import MACRO_BENCHMARKS

        footprints = []
        for duration_s in (20.0, 60.0):
            (spec,) = MACRO_BENCHMARKS["telemetry_fleet"].build_specs(duration_s)
            harness = ExperimentHarness.from_spec(spec)
            harness.run(
                duration_s=spec.duration_s,
                sample_period_s=spec.sample_period_s,
                warmup_s=spec.warmup_s,
            )
            footprints.append(_telemetry_memory_mb(harness))
        short_mb, long_mb = footprints
        assert long_mb <= 1.25 * short_mb
