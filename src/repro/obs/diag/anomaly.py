"""Online kernel-latency anomaly detection: EWMA baselines with MAD-style
deviation scoring, per (kernel signature, backend, shard worker).

The gated benchmark (``bench/``) catches regressions between PRs;
they cannot catch a *drift in production* — a kernel whose cost is
input-dependent going quadratic on a new workload shape, one shard worker
on a sick host, a codegen kernel silently falling back to the
interpreter.  The detector keeps a per-key exponentially-weighted moving
average of latency plus an EWMA of absolute deviation (a streaming stand-
in for the median absolute deviation), scores each new observation as

    score = |x - ewma| / (ewma_abs_deviation + eps)

and treats an observation as a *deviation* only when the score clears a
threshold **and** the latency is a multiple of the baseline **and** above
an absolute floor — three independent guards so timer jitter on
microsecond kernels can never page anyone.  A key is *flagged* (named a
suspect) only after ``sustain`` deviations inside one rolling window;
flagging feeds ``obs.diag.anomaly.*`` counters, degrades the service
``health`` verdict, and triggers a flight-recorder dump.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from .. import metrics

__all__ = ["AnomalyDetector"]

#: worker id used for work executed in the serving process itself
LOCAL_WORKER = -1


class AnomalyDetector:
    """Streaming latency baselines and suspect tracking (thread-safe)."""

    def __init__(
        self,
        alpha: float = 0.25,
        threshold: float = 8.0,
        min_ratio: float = 4.0,
        min_us: float = 250.0,
        min_samples: int = 10,
        sustain: int = 3,
        window_s: float = 10.0,
        suspect_ttl_s: float = 60.0,
        clock=time.monotonic,
    ):
        self.alpha = float(alpha)
        self.threshold = float(threshold)
        self.min_ratio = float(min_ratio)
        self.min_us = float(min_us)
        self.min_samples = int(min_samples)
        self.sustain = int(sustain)
        self.window_s = float(window_s)
        self.suspect_ttl_s = float(suspect_ttl_s)
        self._clock = clock
        self._mu = threading.Lock()
        #: key -> [latency_ewma_us, abs_dev_ewma_us, n, flop_rate_ewma]
        self._base: dict[tuple, list] = {}
        #: key -> deque of deviation timestamps inside the rolling window
        self._strikes: dict[tuple, deque] = {}
        #: key -> most recent suspect record
        self._suspects: dict[tuple, dict] = {}

    # ------------------------------------------------------------- feeding
    def observe(
        self,
        kernel: str,
        backend: str,
        worker: int,
        seconds: float,
        flops: float = 0.0,
    ) -> dict | None:
        """Feed one completed-kernel measurement.

        Returns the suspect record when this observation crosses the
        sustained-deviation bar (the caller then dumps the flight
        recorder), else None.
        """
        us = seconds * 1e6
        key = (kernel, backend, worker)
        rate = (flops / seconds) if (flops and seconds > 0) else 0.0
        reg = metrics.registry
        reg.inc("obs.diag.anomaly.observed")
        a = self.alpha
        with self._mu:
            b = self._base.get(key)
            if b is None:
                self._base[key] = [us, 0.0, 1, rate]
                return None
            ewma, dev_ewma, n, rate_ewma = b
            deviation = abs(us - ewma)
            score = deviation / (dev_ewma + 1e-9)
            is_dev = (
                n >= self.min_samples
                and score > self.threshold
                and us > ewma * self.min_ratio
                and us > self.min_us
            )
            if not is_dev:
                # deviations are quarantined from the baseline so a slow
                # burst cannot teach the detector that slow is normal
                b[0] = ewma + a * (us - ewma)
                b[1] = dev_ewma + a * (deviation - dev_ewma)
                if rate:
                    b[3] = rate_ewma + a * (rate - rate_ewma) if rate_ewma else rate
            b[2] = n + 1
            if not is_dev:
                return None
            reg.inc("obs.diag.anomaly.deviation")
            now = self._clock()
            strikes = self._strikes.setdefault(key, deque())
            strikes.append(now)
            horizon = now - self.window_s
            while strikes and strikes[0] < horizon:
                strikes.popleft()
            if len(strikes) < self.sustain:
                return None
            strikes.clear()
            suspect = {
                "kernel": kernel,
                "backend": backend,
                "worker": worker,
                "score": round(score, 2),
                "latency_us": round(us, 1),
                "baseline_us": round(ewma, 1),
                "baseline_flop_rate": round(rate_ewma, 1),
                "samples": n,
                "t": now,
            }
            self._suspects[key] = suspect
        reg.inc("obs.diag.anomaly.flagged")
        return suspect

    # ------------------------------------------------------------- queries
    def suspects(self) -> list[dict]:
        """Current suspects (flagged within ``suspect_ttl_s``), worst first."""
        now = self._clock()
        horizon = now - self.suspect_ttl_s
        with self._mu:
            for key in [k for k, s in self._suspects.items() if s["t"] < horizon]:
                del self._suspects[key]
            out = sorted(self._suspects.values(), key=lambda s: -s["score"])
        return [dict(s) for s in out]

    def baseline(self, kernel: str, backend: str, worker: int = LOCAL_WORKER):
        """(latency_ewma_us, abs_dev_ewma_us, samples, flop_rate_ewma) or None."""
        with self._mu:
            b = self._base.get((kernel, backend, worker))
            return tuple(b) if b is not None else None

    def stats(self) -> dict:
        with self._mu:
            return {
                "keys": len(self._base),
                "suspects": len(self._suspects),
            }
