"""MetricsRegistry delta semantics: bucket-wise histogram deltas under
concurrent writers, and percentile estimates of the log-linear buckets
(within 1/32 of the exact nearest-rank value)."""

import math
import threading

import numpy as np
import pytest

from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    bucket_edges,
    percentile,
)


def _bucket_of(d: dict, value) -> int:
    """Count of the one sparse bucket of payload *d* that holds *value*."""
    hits = [n for b, n in d["buckets"]
            if bucket_edges(b)[0] <= value < bucket_edges(b)[1]]
    assert len(hits) == 1, (value, d["buckets"])
    return hits[0]


def _nearest_rank(values, q: float) -> float:
    vals = sorted(values)
    return vals[max(0, math.ceil(q * len(vals)) - 1)]


class TestHistogramDelta:
    def test_delta_is_bucket_wise(self):
        reg = MetricsRegistry()
        reg.enable()
        reg.observe("h", 3)      # bucket [3, 3.0625)
        before = reg.snapshot()
        reg.observe("h", 3)      # the same bucket again
        reg.observe("h", 100)    # [100, 102)
        reg.observe("h", 10**9)  # a bucket 2**24 wide, near 2**30
        after = reg.snapshot()
        d = MetricsRegistry.delta(before, after)["histograms"]["h"]
        assert d["count"] == 3
        assert d["total"] == pytest.approx(3 + 100 + 10**9)
        # sparse, sorted, and only the window's observations
        keys = [b for b, _ in d["buckets"]]
        assert keys == sorted(keys) and len(keys) == 3
        for v in (3, 100, 10**9):
            assert _bucket_of(d, v) == 1

    def test_delta_of_new_histogram_is_its_snapshot(self):
        reg = MetricsRegistry()
        reg.enable()
        before = reg.snapshot()
        reg.observe("fresh", 17)
        d = MetricsRegistry.delta(before, reg.snapshot())["histograms"]
        assert d["fresh"]["count"] == 1
        snap = reg.snapshot()["histograms"]["fresh"]
        assert d["fresh"]["buckets"] == snap["buckets"]
        assert _bucket_of(d["fresh"], 17) == 1

    def test_unchanged_histogram_absent_from_delta(self):
        reg = MetricsRegistry()
        reg.enable()
        reg.observe("quiet", 5)
        snap = reg.snapshot()
        assert MetricsRegistry.delta(snap, snap)["histograms"] == {}

    def test_delta_under_concurrent_writers(self):
        """Writers race the window edges; the windowed delta must still be
        exactly the observations made between the two snapshots, bucket by
        bucket."""
        reg = MetricsRegistry()
        reg.enable()
        WRITERS, PER_WRITER = 8, 500
        # values chosen to land in distinct buckets deterministically
        values = [2, 40, 1000, 100_000]
        start = threading.Barrier(WRITERS + 1)

        def writer(wi: int) -> None:
            start.wait()
            for k in range(PER_WRITER):
                reg.observe("lat", values[(wi + k) % len(values)])

        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(WRITERS)
        ]
        for t in threads:
            t.start()
        before = reg.snapshot()
        start.wait()  # release the writers only after the 'before' edge
        for t in threads:
            t.join()
        after = reg.snapshot()

        d = MetricsRegistry.delta(before, after)["histograms"]["lat"]
        total_obs = WRITERS * PER_WRITER
        assert d["count"] == total_obs
        assert sum(n for _, n in d["buckets"]) == total_obs
        # every writer hits each value PER_WRITER/len(values) times
        per_bucket = total_obs // len(values)
        for v in values:
            assert _bucket_of(d, v) == per_bucket
        assert d["total"] == pytest.approx(per_bucket * sum(values))

    def test_counter_delta_under_concurrent_writers(self):
        reg = MetricsRegistry()
        reg.enable()
        before = reg.snapshot()
        N = 1000

        def bump():
            for _ in range(N):
                reg.inc("c")

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        d = MetricsRegistry.delta(before, reg.snapshot())["counters"]
        assert d["c"] == 4 * N


class TestPercentileAtBucketBoundaries:
    """percentile() interpolates inside the bucket holding rank q*count
    and clamps to the observed min/max — pin that contract at octave
    edges, where a bucket's lower edge is a power of two."""

    def _hist_with(self, values):
        h = Histogram()
        for v in values:
            h.observe(v)
        return h.to_dict()

    @pytest.mark.parametrize("bound", [4, 16, 64, 256, 1024, 4**15])
    def test_exact_boundary_value_reports_its_bucket(self, bound):
        # a value sitting exactly on an octave edge opens that octave's
        # first bucket ([lo, hi) buckets); the clamp reads the value back
        d = self._hist_with([bound])
        [[b, n]] = d["buckets"]
        assert bucket_edges(b)[0] == bound and n == 1
        assert percentile(d, 0.99) == float(bound)

    @pytest.mark.parametrize("bound", [4, 16, 64, 256])
    def test_one_past_boundary_rolls_to_next_bucket(self, bound):
        d = self._hist_with([bound, bound + 1])
        # the bucket opening at the edge is bound/32 wide, so bound + 1
        # rolls to the next bucket for bound <= 32 and shares it above
        lo, hi = bucket_edges(d["buckets"][0][0])
        assert lo == bound and hi == bound * 33 / 32
        assert len(d["buckets"]) == (2 if bound <= 32 else 1)
        assert percentile(d, 0.50) == pytest.approx(bound, rel=1 / 32)
        assert percentile(d, 0.99) == float(bound + 1)

    def test_p50_and_p99_split_across_buckets(self):
        # 99 tiny observations and one huge one: p50 and p99 stay in the
        # small bucket, p99.9 must not (the boundary case CI dashboards
        # read; power-of-4 bucket edges read 4.0 for both)
        d = self._hist_with([3] * 99 + [5000])
        assert percentile(d, 0.50) == pytest.approx(3.0, rel=0.03)
        assert percentile(d, 0.99) == pytest.approx(3.0, rel=0.03)
        assert percentile(d, 0.999) == 5000.0
        # a service-shaped latency distribution: 20 000 lognormal samples
        # in microseconds, every percentile within 1/32 of the exact rank
        rng = np.random.default_rng(0)
        values = rng.lognormal(8.2, 0.5, 20_000).tolist()
        d = self._hist_with(values)
        for q in (0.50, 0.90, 0.99):
            exact = _nearest_rank(values, q)
            assert percentile(d, q) == pytest.approx(exact, rel=1 / 32)

    def test_overflow_bucket_uses_observed_max(self):
        # no overflow bucket remains: a huge value gets a sparse bucket of
        # its own octave, and the clamp reads it back exactly
        huge = 4**15 + 12345
        d = self._hist_with([huge])
        assert len(d["buckets"]) == 1
        assert percentile(d, 0.99) == float(huge)

    def test_empty_histogram_is_none(self):
        assert percentile(Histogram().to_dict(), 0.99) is None

    def test_windowed_delta_percentile(self):
        """percentile() over a delta window (the stats() path): only the
        window's observations move the estimate."""
        reg = MetricsRegistry()
        reg.enable()
        for _ in range(100):
            reg.observe("lat", 3)          # history: all tiny
        before = reg.snapshot()
        for _ in range(10):
            reg.observe("lat", 900)        # window: all in [896, 912)
        d = MetricsRegistry.delta(before, reg.snapshot())["histograms"]["lat"]
        assert d["buckets"] == [[d["buckets"][0][0], 10]]
        # interpolated inside [896, 912), clamped to the observed max
        assert percentile(d, 0.99) == 900.0
        assert percentile(d, 0.10) == pytest.approx(897.6)
