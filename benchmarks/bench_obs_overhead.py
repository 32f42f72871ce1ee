"""Disabled-overhead guard: obs instrumentation must be ~free when off.

Two shapes of the same check:

* pytest-benchmark cases (``bench_obs_*``) so the overhead shows up in
  the normal benchmark tables, and
* a direct min-of-K interleaved comparison (``test_obs_disabled_overhead``)
  that CI runs as a smoke assertion — the BC workload with the obs layer
  disarmed must land within 3% (plus a small absolute slack for timer
  noise) of the same workload with every instrumentation seam
  monkeypatched out, i.e. seed behavior.

Interleaving the A/B samples and taking per-side minima makes the guard
robust to CI frequency scaling; the absolute slack keeps a sub-millisecond
workload from tripping on scheduler jitter.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro as grb
from repro import context, obs
from repro.algorithms import bc_update
from repro.io import rmat

from repro.execution.planner import driver

from conftest import header, row

SCALE = 7
SOURCES = 4


def _bc_once(A, batch):
    delta = bc_update(A, batch)
    nvals = delta.nvals()
    delta.free()
    return nvals


@pytest.fixture(scope="module")
def bc_workload():
    A = rmat(SCALE, 8, seed=7, domain=grb.INT32)
    return A, np.arange(SOURCES)


def bench_obs_disarmed_bc(benchmark, bc_workload):
    """BC with the obs layer present but disarmed (the default state)."""
    A, batch = bc_workload
    assert obs.spans.current() is None and not obs.metrics.enabled()
    result = benchmark(_bc_once, A, batch)
    header("obs overhead: disarmed BC")
    row(f"bc_update rmat{SCALE} batch{SOURCES}", "disarmed", result)


def bench_obs_capture_bc(benchmark, bc_workload):
    """BC under obs.capture() — the armed cost, for the record."""
    A, batch = bc_workload

    def run():
        with obs.capture():
            return _bc_once(A, batch)

    result = benchmark(run)
    header("obs overhead: captured BC")
    row(f"bc_update rmat{SCALE} batch{SOURCES}", "captured", result)


def _min_of_k(fn, k: int, inner: int) -> float:
    best = float("inf")
    for _ in range(k):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_obs_disabled_overhead(bc_workload, monkeypatch):
    """CI smoke assertion: disarmed obs within 3% of seed behavior."""
    A, batch = bc_workload
    run = lambda: _bc_once(A, batch)

    K, INNER = 7, 3
    run()  # warmup: caches, lazy imports

    # interleave the two sides so frequency drift hits both equally
    disarmed = [float("inf")] * K
    stripped = [float("inf")] * K
    identity = lambda fn, label, prov=None, rids=(), deferred=True: fn
    for i in range(K):
        assert obs.spans.current() is None
        for _ in range(INNER):
            t0 = time.perf_counter()
            run()
            disarmed[i] = min(disarmed[i], time.perf_counter() - t0)
        with pytest.MonkeyPatch.context() as mp:
            # seed-equivalent: no instrumentation seam at all
            mp.setattr(driver, "instrument", identity)
            mp.setattr(context, "_instrument", identity)
            for _ in range(INNER):
                t0 = time.perf_counter()
                run()
                stripped[i] = min(stripped[i], time.perf_counter() - t0)

    a, b = min(disarmed), min(stripped)
    slack = 200e-6  # absolute jitter floor
    header("obs overhead guard")
    row("disarmed min (s)", f"{a:.6f}")
    row("stripped min (s)", f"{b:.6f}")
    row("ratio", f"{a / b:.4f}")
    assert a <= b * 1.03 + slack, (
        f"disarmed obs run {a:.6f}s exceeds 3% of stripped run {b:.6f}s"
    )


def test_obs_ring_retention_overhead(bc_workload, tmp_path):
    """Flight-recorder guard: the always-on span ring (capture OFF) within
    3% of the fully disarmed baseline.  The ring's close path is one
    deque.append with no lock, so retention must not show up in a
    nonblocking workload even though every drained span now lands
    somewhere."""
    from repro.obs import diag

    A, batch = bc_workload

    def run(rec=None):
        context._reset()  # force-disarms any ring: re-arm below
        if rec is not None:
            rec.install()
        grb.init(grb.Mode.NONBLOCKING)
        return _bc_once(A, batch)

    K, INNER = 7, 4
    run()  # warmup

    disarmed = [float("inf")] * K
    ringed = [float("inf")] * K
    try:
        rec = diag.install(dump_dir=str(tmp_path))
        assert obs.spans._sink is None  # no capture armed throughout
        for i in range(K):
            for _ in range(INNER):
                t0 = time.perf_counter()
                run()
                disarmed[i] = min(disarmed[i], time.perf_counter() - t0)
            for _ in range(INNER):
                t0 = time.perf_counter()
                run(rec)
                ringed[i] = min(ringed[i], time.perf_counter() - t0)
        assert rec.ring.snapshot(), "ring retained nothing — guard is vacuous"
    finally:
        diag.uninstall()

    a, b = min(ringed), min(disarmed)
    # the two sides of one interleaved phase run back-to-back, so a CI
    # contention burst hits both; the best per-phase ratio survives bursts
    # that a cross-phase global min does not
    best_phase = min(r / d for r, d in zip(ringed, disarmed))
    slack = 200e-6
    header("flight-recorder ring overhead guard")
    row("ring-armed min (s)", f"{a:.6f}")
    row("disarmed min (s)", f"{b:.6f}")
    row("ratio", f"{a / b:.4f}")
    row("best phase ratio", f"{best_phase:.4f}")
    assert a <= b * 1.03 + slack or best_phase <= 1.03, (
        f"ring-armed run {a:.6f}s exceeds 3% of disarmed run {b:.6f}s "
        f"(best phase ratio {best_phase:.4f})"
    )


def test_obs_tracing_overhead(bc_workload):
    """Request tracing within 5%: an installed trace stamps every deferred
    op, but with no capture armed and no drain accounting collecting, that
    stamp (a thread-local read at enqueue plus provenance assembly at
    drain) must stay in the noise of a nonblocking workload."""
    from repro.obs import tracing

    A, batch = bc_workload

    def run():
        context._reset()
        grb.init(grb.Mode.NONBLOCKING)
        return _bc_once(A, batch)

    K, INNER = 7, 3
    run()  # warmup

    plain = [float("inf")] * K
    traced = [float("inf")] * K
    trace = tracing.TraceContext.mint()
    for i in range(K):
        for _ in range(INNER):
            t0 = time.perf_counter()
            run()
            plain[i] = min(plain[i], time.perf_counter() - t0)
        with tracing.use(trace):
            for _ in range(INNER):
                t0 = time.perf_counter()
                run()
                traced[i] = min(traced[i], time.perf_counter() - t0)

    a, b = min(traced), min(plain)
    slack = 200e-6
    header("request-tracing overhead guard")
    row("traced min (s)", f"{a:.6f}")
    row("untraced min (s)", f"{b:.6f}")
    row("ratio", f"{a / b:.4f}")
    assert a <= b * 1.05 + slack, (
        f"traced run {a:.6f}s exceeds 5% of untraced run {b:.6f}s"
    )
