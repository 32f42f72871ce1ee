"""Process-wide metrics registry: named counters and histograms.

The registry aggregates whole-process totals — realized flops, nnz written,
kernel invocations, pool task counts — independently of any span capture.
It is disabled by default; :func:`repro.obs.capture` enables it for the
capture window and reports the window's deltas, or callers can leave it
enabled permanently (a production profile) and poll :meth:`snapshot`.

Every latency summary in the package is one log-linear :class:`Histogram`
(32 linear sub-buckets per power of two), read by :func:`percentile`, the
Prometheus exporter, :class:`SLOTracker`, ``Service.stats()`` and the
loadgen; a percentile is within 1/32 (~3 %) of the exact rank value.

Cost model: when disabled every ``inc``/``observe`` is an attribute read
and a return; hot kernel paths additionally guard on
``spans.current() is None and not metrics.enabled()`` so the disabled case
does no measurement work at all.
"""

from __future__ import annotations

import threading
import time
from math import frexp, ldexp

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "SLOTracker",
    "registry",
    "enabled",
    "enable",
    "disable",
    "bucket_edges",
    "percentile",
]

#: linear sub-buckets per power of two: bucket ``b`` is sub-bucket ``s``
#: of octave ``[2**o, 2**(o+1))`` for ``o, s = divmod(b, SUB_BUCKETS)``
SUB_BUCKETS = 32
#: the bucket of zero (and of any non-positive value), below every other
ZERO_BUCKET = -(1 << 16)


def bucket_edges(b: int) -> tuple[float, float]:
    """The ``[lo, hi)`` value range of histogram bucket *b*: at most 1/32
    of *lo* wide, ``(0.0, 0.0)`` for the zero bucket."""
    if b == ZERO_BUCKET:
        return (0.0, 0.0)
    octave, sub = divmod(b, SUB_BUCKETS)
    return (ldexp(SUB_BUCKETS + sub, octave - 5),
            ldexp(SUB_BUCKETS + sub + 1, octave - 5))


class Histogram:
    """Log-linear histogram of finite values with count/total/min/max;
    ``buckets`` maps each non-empty bucket (:func:`bucket_edges`) to its
    count."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self.buckets: dict[int, int] = {}

    def observe(self, value) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value > 0:
            # value = m * 2**e with m in [0.5, 1): octave e - 1, and
            # int(m * 64) - 32 is the sub-bucket (SUB_BUCKETS == 32)
            m, e = frexp(value)
            b = (e << 5) + int(m * 64.0) - 64
        else:
            b = ZERO_BUCKET
        self.buckets[b] = self.buckets.get(b, 0) + 1

    def merge(self, other: "Histogram") -> None:
        """Add *other*'s observations to this histogram."""
        if not other.count:
            return
        self.count += other.count
        self.total += other.total
        if self.min is None or other.min < self.min:
            self.min = other.min
        if self.max is None or other.max > self.max:
            self.max = other.max
        for b, n in other.buckets.items():
            self.buckets[b] = self.buckets.get(b, 0) + n

    def to_dict(self) -> dict:
        """JSON-able; ``buckets`` becomes sorted ``[bucket, count]`` pairs."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": sorted([b, n] for b, n in self.buckets.items()),
        }


class MetricsRegistry:
    """Thread-safe counter/histogram aggregation, near-free when disabled."""

    def __init__(self):
        self._lock = threading.Lock()
        self._enabled = False
        self._counters: dict[str, int] = {}
        self._hists: dict[str, Histogram] = {}

    # ----------------------------------------------------------- lifecycle
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._hists.clear()

    # ------------------------------------------------------------ emitters
    def inc(self, name: str, value: int = 1) -> None:
        if not self._enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def observe(self, name: str, value) -> None:
        if not self._enabled:
            return
        with self._lock:
            h = self._hists.get(name)
            if h is None:
                h = self._hists[name] = Histogram()
            h.observe(value)

    # ------------------------------------------------------------- queries
    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> dict:
        """{"counters": {name: int}, "histograms": {name: {...}}} (a copy)."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "histograms": {k: h.to_dict() for k, h in self._hists.items()},
            }

    @staticmethod
    def delta(before: dict, after: dict) -> dict:
        """Counter/histogram-count deltas between two :meth:`snapshot` dicts."""
        counters = {}
        for name, v in after.get("counters", {}).items():
            d = v - before.get("counters", {}).get(name, 0)
            if d:
                counters[name] = d
        hists = {}
        b_h = before.get("histograms", {})
        for name, h in after.get("histograms", {}).items():
            prev = b_h.get(name, {"count": 0, "total": 0.0})
            d_count = h["count"] - prev["count"]
            if d_count:
                # counts only grow, so after's buckets cover before's; the
                # window's min/max are unknowable from snapshots, so the
                # lifetime bounds are the (safe) percentile() clamp
                pb = dict(prev.get("buckets", ()))
                hists[name] = {
                    "count": d_count,
                    "total": h["total"] - prev["total"],
                    "min": h["min"],
                    "max": h["max"],
                    "buckets": [[b, n - pb.get(b, 0)] for b, n in h["buckets"]
                                if n != pb.get(b, 0)],
                }
        return {"counters": counters, "histograms": hists}


def percentile(hist: dict, q: float) -> float | None:
    """Estimate the *q*-th percentile (0 < q ≤ 1) of a histogram snapshot.

    *hist* is a :meth:`Histogram.to_dict` payload or a
    :meth:`MetricsRegistry.delta` entry.  The estimate interpolates
    linearly inside the bucket that holds rank ``q * count`` and is
    clamped to the observed min/max.  A bucket is at most 1/32 of its
    lower edge wide, so the estimate is within 1/32 of the exact
    nearest-rank value.  Returns ``None`` for an empty histogram.
    """
    count = hist.get("count", 0)
    if not count:
        return None
    target = q * count
    cum = 0
    est = hist["max"]
    for b, n in hist["buckets"]:
        if cum + n >= target:
            lo, hi = bucket_edges(b)
            est = lo + (hi - lo) * (target - cum) / n
            break
        cum += n
    return float(min(max(est, hist["min"]), hist["max"]))


def ratio(numerator: float, denominator: float) -> float:
    """A safe rate for counter pairs (``hits / (hits + misses)``-style):
    0.0 on an empty denominator instead of a division error, so metric
    consumers can report rates before any traffic has arrived."""
    return (numerator / denominator) if denominator else 0.0


class _Epoch:
    """One ``window_s`` slice of an SLO window."""

    __slots__ = ("hist", "failures", "breaches")

    def __init__(self):
        self.hist = Histogram()
        self.failures = 0
        self.breaches = 0


class SLOTracker:
    """Rolling-window latency SLO: p99 target, window percentile, and
    error-budget burn counters.

    The window is the current and the previous *window_s* epoch of the
    clock, so it spans between one and two *window_s*.  Each epoch is one
    :class:`Histogram` of completed latencies plus exact failure and
    breach counts: memory is bounded by bucket count, not request rate.
    A request **breaches** when its latency exceeds the target or when it
    fails outright.  Failures count in ``window_count`` and rank above
    every latency, so once they reach the p99 rank ``window_p99_us`` is
    ``inf``.  The error budget is the fraction of requests allowed to
    breach (1% by default — the definition of a p99 target), and
    ``burn_rate`` is breach-fraction divided by budget: 1.0 means burning
    exactly as fast as allowed, above 1.0 the SLO is being missed.
    """

    def __init__(
        self,
        target_us: float,
        window_s: float = 60.0,
        error_budget: float = 0.01,
        clock=time.monotonic,
    ):
        if target_us <= 0 or window_s <= 0:
            raise ValueError("SLO target and window must be positive")
        self.target_us = float(target_us)
        self.window_s = float(window_s)
        self.error_budget = float(error_budget)
        self._clock = clock
        self._lock = threading.Lock()
        self._epoch = int(clock() // self.window_s)
        self._cur = _Epoch()
        self._prev = _Epoch()
        self.total = 0
        self.breaches = 0

    def _roll(self, now: float) -> _Epoch:
        """The epoch of *now*, retiring the ones the clock has left."""
        epoch = int(now // self.window_s)
        if epoch != self._epoch:
            self._prev = self._cur if epoch == self._epoch + 1 else _Epoch()
            self._cur = _Epoch()
            self._epoch = epoch
        return self._cur

    def observe(self, latency_us: float) -> None:
        now = self._clock()
        breach = latency_us > self.target_us
        with self._lock:
            ep = self._roll(now)
            ep.hist.observe(latency_us)
            ep.breaches += breach
            self.total += 1
            self.breaches += breach

    def record_failure(self) -> None:
        """A failed request burns budget regardless of how fast it failed."""
        now = self._clock()
        with self._lock:
            ep = self._roll(now)
            ep.failures += 1
            ep.breaches += 1
            self.total += 1
            self.breaches += 1

    def budget_exhausted(self, min_total: int = 20) -> bool:
        """True once the lifetime breach fraction has consumed the whole
        error budget.  Cheap (two counter reads) so it can gate a
        flight-recorder dump on every breach; *min_total* suppresses
        cold-start noise where one early breach is 100% of traffic."""
        with self._lock:
            total, breaches = self.total, self.breaches
        if total < min_total or not self.error_budget:
            return False
        return (breaches / total) >= self.error_budget

    def summary(self) -> dict:
        now = self._clock()
        window = Histogram()
        with self._lock:
            self._roll(now)
            epochs = (self._prev, self._cur)
            for ep in epochs:
                window.merge(ep.hist)
            failures = sum(ep.failures for ep in epochs)
            window_breaches = sum(ep.breaches for ep in epochs)
            total, breaches = self.total, self.breaches
        window_count = window.count + failures
        window_p99 = None
        if window_count:
            rank = 0.99 * window_count
            window_p99 = (
                percentile(window.to_dict(), rank / window.count)
                if rank <= window.count else float("inf")
            )
        breach_fraction = (breaches / total) if total else 0.0
        return {
            "target_p99_us": self.target_us,
            "window_s": self.window_s,
            "window_count": window_count,
            "window_p99_us": window_p99,
            "window_breaches": window_breaches,
            "window_met": window_p99 is None or window_p99 <= self.target_us,
            "total": total,
            "breaches": breaches,
            "error_budget": self.error_budget,
            "burn_rate": (
                breach_fraction / self.error_budget if self.error_budget else None
            ),
            "budget_remaining": max(
                0.0, 1.0 - (breach_fraction / self.error_budget)
            ) if self.error_budget else None,
        }


#: the process-wide registry
registry = MetricsRegistry()


def enabled() -> bool:
    return registry.enabled


def enable() -> None:
    registry.enable()


def disable() -> None:
    registry.disable()
