"""Flight recorder: always-on span retention, dump triggers and rate
limiting, and the SIGKILL-survivable shard-worker stitch.

The recorder's contract is that the *last* N seconds of spans are
reconstructible after the fact without anyone having armed a capture —
including spans that ran in shard worker processes that are no longer
alive by the time the dump is cut.
"""

from __future__ import annotations

import json
import os
import signal
import time

import numpy as np
import pytest

import repro as grb
from repro import context, obs, parallel
from repro.info import Panic
from repro.obs import diag, metrics, spans
from repro.obs.diag.__main__ import main as diag_main
from repro.obs.diag.recorder import FlightRecorder, RingSink

from tests.conftest import random_matrix


@pytest.fixture(autouse=True)
def _clean_diag():
    yield
    diag.uninstall()


def _drain_mxm(n: int = 12, seed: int = 3) -> None:
    rng = np.random.default_rng(seed)
    A = random_matrix(rng, n, n, 0.3, domain=grb.FP64)
    C = grb.Matrix(grb.FP64, n, n)
    grb.mxm(C, None, None, grb.PLUS_TIMES[grb.FP64], A, A)
    grb.wait()


class TestRingRetention:
    def test_spans_retained_with_capture_off(self, tmp_path):
        """No capture armed anywhere — the armed ring still sees the
        drain's spans, bounded by its capacity."""
        rec = diag.install(dump_dir=str(tmp_path))
        grb.init(grb.Mode.NONBLOCKING)
        _drain_mxm()
        labels = {sp.label for sp in rec.ring.snapshot()}
        assert "mxm" in labels
        assert "drain" in {sp.kind for sp in rec.ring.snapshot()}

    def test_capacity_bounds_the_ring(self):
        ring = RingSink(capacity=8)
        for i in range(50):
            sp = ring.open(f"s{i}", "op")
            ring.close(sp)
        kept = ring.snapshot()
        assert len(kept) == 8
        assert [sp.label for sp in kept] == [f"s{i}" for i in range(42, 50)]

    def test_full_capture_still_feeds_the_ring(self, tmp_path):
        """An armed capture wins `current()`, but closed spans tee into
        the ring so the recorder never has a blind window."""
        rec = diag.install(dump_dir=str(tmp_path))
        grb.init(grb.Mode.NONBLOCKING)
        with obs.capture() as cap:
            _drain_mxm()
        assert any(sp.label == "mxm" for sp in cap.spans)
        assert any(sp.label == "mxm" for sp in rec.ring.snapshot())

    def test_horizon_filters_old_spans(self, tmp_path):
        rec = FlightRecorder(horizon_s=0.05, dump_dir=str(tmp_path))
        old = rec.ring.open("ancient", "op")
        rec.ring.close(old)
        old.t0 = old.t1 = time.perf_counter() - 10.0
        fresh = rec.ring.open("fresh", "op")
        rec.ring.close(fresh)
        kept = {sp.label for sp in rec.snapshot()}
        assert kept == {"fresh"}


class TestDumps:
    def test_dump_writes_loadable_chrome_trace(self, tmp_path):
        rec = diag.install(dump_dir=str(tmp_path))
        grb.init(grb.Mode.NONBLOCKING)
        _drain_mxm()
        path = diag.trigger_dump("unit-test", detail={"why": "pinned"})
        assert path is not None and os.path.exists(path)
        doc = json.loads(open(path).read())
        assert doc["otherData"]["reason"] == "unit-test"
        assert doc["otherData"]["detail"] == {"why": "pinned"}
        events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert events
        # causal order: the exporter emits X events sorted by start time
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)
        assert any(e["name"] == "mxm" for e in events)

    def test_dump_validates_against_schema_cli(self, tmp_path, capsys):
        diag.install(dump_dir=str(tmp_path))
        grb.init(grb.Mode.NONBLOCKING)
        _drain_mxm()
        path = diag.trigger_dump("cli-check")
        assert diag_main(["validate-dump", path]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_rate_limit_suppresses_then_force_bypasses(self, tmp_path):
        metrics.enable()
        try:
            rec = diag.install(
                dump_dir=str(tmp_path), min_dump_interval_s=3600.0
            )
            sp = rec.ring.open("x", "op")
            rec.ring.close(sp)
            assert rec.dump("first") is not None
            assert rec.dump("second") is None  # inside the interval
            assert metrics.registry.snapshot()["counters"][
                "obs.diag.dump.suppressed"
            ] == 1
            assert rec.dump("forced", force=True) is not None
            assert len(rec.dumps) == 2
        finally:
            metrics.disable()

    def test_trigger_dump_without_install_is_noop(self):
        assert diag.trigger_dump("nothing") is None


class TestShardStitch:
    """The acceptance pin: kill a shard worker mid-run; the parent's
    stitched dump still loads, is causally ordered, and names the dead
    worker's completed tasks on its own lane."""

    def _enable_processes(self):
        grb.init(grb.Mode.NONBLOCKING)
        parallel.set_backend("processes")
        parallel.set_parallel_threshold(0)
        parallel.set_shard_workers(2)

    def test_sigkilled_worker_spans_survive_in_dump(self, tmp_path, rng):
        from repro.shard.pool import get_pool

        rec = diag.install(dump_dir=str(tmp_path))
        self._enable_processes()
        n = 32
        A = random_matrix(rng, n, n, 0.3)
        C = grb.Matrix(grb.INT64, n, n)
        grb.mxm(C, None, None, grb.PLUS_TIMES[grb.INT64], A, A)
        grb.wait()  # completes: spans shipped with each Result

        pool = get_pool()
        os.kill(pool.pids[0], signal.SIGKILL)
        time.sleep(0.2)
        D = grb.Matrix(grb.INT64, n, n)
        grb.mxm(D, None, None, grb.PLUS_TIMES[grb.INT64], A, A)
        with pytest.raises(Panic):
            grb.wait()

        # the Panic path dumped automatically
        assert rec.dumps, "worker death did not trigger a flight dump"
        doc = json.loads(open(rec.dumps[-1]).read())
        assert doc["otherData"]["reason"] == "panic"
        events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert events
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts), "stitched dump is not causally ordered"
        # the exporter renames lanes through thread_name metadata events;
        # stitched worker spans land on shard-worker-N lanes
        worker_tids = {
            e["tid"] for e in doc["traceEvents"]
            if e.get("ph") == "M" and e.get("name") == "thread_name"
            and str(e["args"]["name"]).startswith("shard-worker-")
        }
        assert worker_tids, "no shard-worker lanes in the dump"
        worker_events = [e for e in events if e["tid"] in worker_tids]
        assert worker_events, "no stitched shard-worker spans in the dump"
        assert any(
            e["name"].startswith("shard.") for e in worker_events
        )
        assert diag_main(["validate-dump", rec.dumps[-1]]) == 0

    def test_worker_metrics_ship_without_double_counting(self, rng):
        """Counters incremented inside shard workers arrive parent-side
        exactly once (delta shipping), and survive a pool respawn."""
        from repro.shard.pool import get_pool

        metrics.enable()
        try:
            self._enable_processes()
            n = 32
            A = random_matrix(rng, n, n, 0.3)

            def tasks_counter() -> int:
                return metrics.registry.snapshot()["counters"].get(
                    "shard.worker.tasks", 0
                )

            before = tasks_counter()
            done0 = get_pool().tasks_done
            C = grb.Matrix(grb.INT64, n, n)
            grb.mxm(C, None, None, grb.PLUS_TIMES[grb.INT64], A, A)
            grb.wait()
            ran = get_pool().tasks_done - done0
            assert ran > 0
            assert tasks_counter() - before == ran

            # respawn: SIGKILL one worker, fail a drain, then run again on
            # the fresh pool — the aggregate keeps the shipped history and
            # adds exactly the new tasks (a naive absolute-value merge
            # would double the old worker's total here)
            os.kill(get_pool().pids[0], signal.SIGKILL)
            time.sleep(0.2)
            D = grb.Matrix(grb.INT64, n, n)
            grb.mxm(D, None, None, grb.PLUS_TIMES[grb.INT64], A, A)
            with pytest.raises(Panic):
                grb.wait()
            mid = tasks_counter()

            E = grb.Matrix(grb.INT64, n, n)
            grb.mxm(E, None, None, grb.PLUS_TIMES[grb.INT64], A, A)
            done1 = get_pool().tasks_done
            grb.wait()
            ran2 = get_pool().tasks_done - done1
            assert ran2 > 0
            assert tasks_counter() - mid == ran2
        finally:
            metrics.disable()


class TestContextIsolation:
    def test_reset_disarms_the_ring(self, tmp_path):
        rec = diag.install(dump_dir=str(tmp_path))
        assert spans.current_ring() is rec.ring
        context._reset()
        assert spans.current_ring() is None
