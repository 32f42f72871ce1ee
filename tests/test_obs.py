"""Observability subsystem: spans, metrics, exporters, and the leak fix.

Covers the obs core (arming discipline, span nesting, counter deltas),
the Chrome trace-event exporter's structural contract, the per-label
report's fusion/CSE provenance lines, and —
the acceptance scenario — the paper's betweenness-centrality example
running under ``obs.capture()`` end to end.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro as grb
from repro import context, obs
from repro.info import InvalidValue

from tests.conftest import random_matrix


# --------------------------------------------------------------------------
# Arming discipline and the zero-cost disabled path
# --------------------------------------------------------------------------

class TestArming:
    def test_disarmed_by_default(self):
        assert obs.spans.current() is None
        assert not obs.metrics.registry.enabled
        assert not obs.active()
        # a disarmed kernel runs with no accumulator, and its cost
        # estimate is never evaluated
        from repro.operations._kernels import _observed_kernel

        seen = []
        _observed_kernel(
            "k", lambda acc: seen.append(acc) or ((), ()), lambda: 1 / 0
        )
        assert seen == [None]

    def test_capture_arms_and_disarms(self):
        with obs.capture() as cap:
            assert obs.spans.current() is cap._sink
            assert obs.metrics.registry.enabled
            assert obs.active()
        assert obs.spans.current() is None
        assert not obs.metrics.registry.enabled

    def test_nested_capture_rejected(self):
        with obs.capture():
            with pytest.raises(InvalidValue):
                with obs.capture():
                    pass
        # the rejected inner capture must not have disarmed the outer state
        assert obs.spans.current() is None

    def test_disarm_restores_preenabled_metrics(self):
        obs.metrics.registry.enable()
        try:
            with obs.capture():
                pass
            assert obs.metrics.registry.enabled  # production profile preserved
        finally:
            obs.metrics.registry.disable()

    def test_wrap_thunk_identity_when_disarmed(self):
        thunk = lambda: None
        assert obs.spans.wrap_thunk(thunk, "x", deferred=False) is thunk

    def test_exception_inside_capture_still_disarms(self):
        with pytest.raises(RuntimeError):
            with obs.capture():
                raise RuntimeError("boom")
        assert obs.spans.current() is None
        assert not obs.metrics.registry.enabled


class TestTraceLeakRegression:
    """``capture.__enter__`` must not leak its armed state: a raise while
    reading ``context.queue_stats()`` once left the global sink armed and
    every later capture died with InvalidValue forever.
    """

    def test_enter_failure_disarms(self, monkeypatch):
        def explode():
            raise RuntimeError("stats backend unavailable")

        monkeypatch.setattr(context, "queue_stats", explode)
        with pytest.raises(RuntimeError, match="stats backend"):
            with obs.capture():
                pass
        monkeypatch.undo()

        # the regression: this second capture raised InvalidValue
        with obs.capture() as cap:
            pass
        assert cap.spans_of("op") == []
        assert obs.spans.current() is None

    def test_enter_failure_restores_metrics_flag(self, monkeypatch):
        monkeypatch.setattr(
            context, "queue_stats",
            lambda: (_ for _ in ()).throw(RuntimeError("nope")),
        )
        with pytest.raises(RuntimeError):
            with obs.capture():
                pass
        assert not obs.metrics.registry.enabled


# --------------------------------------------------------------------------
# Span collection: nesting, kinds, attrs
# --------------------------------------------------------------------------

class TestSpans:
    def test_kernel_span_nests_under_op_span(self, rng):
        A = random_matrix(rng, 12, 12, 0.4)
        C = grb.Matrix(grb.INT64, 12, 12)
        with obs.capture() as cap:
            grb.mxm(C, None, None, grb.PLUS_TIMES[grb.INT64], A, A)
        ops = cap.spans_of("op")
        kernels = cap.spans_of("kernel")
        assert [sp.label for sp in ops] == ["mxm"]
        assert [sp.label for sp in kernels] == ["spgemm"]
        assert kernels[0].parent == ops[0].sid
        assert ops[0].parent is None
        assert not ops[0].deferred  # blocking mode runs eagerly

    def test_kernel_span_flops_and_nnz(self, rng):
        A = random_matrix(rng, 16, 16, 0.4)
        C = grb.Matrix(grb.INT64, 16, 16)
        with obs.capture() as cap:
            grb.mxm(C, None, None, grb.PLUS_TIMES[grb.INT64], A, A)
        (k,) = cap.spans_of("kernel")
        assert k.attrs["flops_estimated"] > 0
        assert 0 < k.attrs["flops_realized"] <= k.attrs["flops_estimated"]
        assert k.attrs["nnz_out"] == C.nvals()
        assert k.seconds > 0

    def test_op_span_carries_nnz_in_out(self, rng):
        A = random_matrix(rng, 10, 10, 0.5)
        C = grb.Matrix(grb.INT64, 10, 10)
        with obs.capture() as cap:
            grb.apply(C, None, None, grb.AINV[grb.INT64], A)
        (op,) = cap.spans_of("op")
        assert op.attrs["nnz_in"] == A.nvals()
        assert op.attrs["nnz_out"] == C.nvals()

    def test_drain_span_in_nonblocking_mode(self, rng):
        grb.init(grb.Mode.NONBLOCKING)
        A = random_matrix(rng, 10, 10, 0.4)
        C = grb.Matrix(grb.INT64, 10, 10)
        with obs.capture() as cap:
            grb.mxm(C, None, None, grb.PLUS_TIMES[grb.INT64], A, A)
            grb.wait()
        drains = cap.spans_of("drain")
        assert len(drains) == 1
        assert drains[0].attrs["ops"] >= 1
        (op,) = [sp for sp in cap.spans_of("op") if sp.label == "mxm"]
        assert op.deferred

    def test_user_region_span(self):
        with obs.capture() as cap:
            with obs.spans.span("my-phase", "region", iteration=3):
                pass
        (r,) = cap.spans_of("region")
        assert r.label == "my-phase" and r.attrs["iteration"] == 3

    def test_annotate_outside_span_is_noop(self):
        obs.annotate(x=1)  # disarmed: must not raise
        with obs.capture():
            obs.annotate(x=1)  # armed but no open span: still a no-op


# --------------------------------------------------------------------------
# Metrics registry
# --------------------------------------------------------------------------

class TestMetrics:
    def test_disabled_registry_ignores_emits(self):
        obs.metrics.registry.inc("x")
        obs.metrics.registry.observe("h", 5)
        snap = obs.metrics.registry.snapshot()
        assert "x" not in snap["counters"] and "h" not in snap["histograms"]

    def test_counter_deltas_over_window(self, rng):
        A = random_matrix(rng, 12, 12, 0.4)
        C = grb.Matrix(grb.INT64, 12, 12)
        with obs.capture() as cap:
            grb.mxm(C, None, None, grb.PLUS_TIMES[grb.INT64], A, A)
        c = cap.counters
        assert c["kernel.invocations"] == 1
        assert c["kernel.flops_realized"] > 0
        assert c["op.writes"] >= 1
        assert c["op.nnz_out"] >= C.nvals()

    def test_histogram_buckets(self):
        h = obs.metrics.Histogram()
        for v in (1, 3, 17, 300):
            h.observe(v)
        d = h.to_dict()
        assert d["count"] == 4
        assert d["min"] == 1 and d["max"] == 300
        assert d["total"] == 321
        # sparse sorted [bucket, count] pairs, one per distinct value here
        assert sum(n for _, n in d["buckets"]) == 4
        keys = [b for b, _ in d["buckets"]]
        assert keys == sorted(keys)
        for (b, n), v in zip(d["buckets"], (1, 3, 17, 300)):
            lo, hi = obs.metrics.bucket_edges(b)
            assert lo <= v < hi and hi - lo <= lo / 32 and n == 1

    def test_delta_is_pure(self):
        before = {"counters": {"a": 2}, "histograms": {}}
        after = {"counters": {"a": 5, "b": 1}, "histograms": {}}
        d = obs.MetricsRegistry.delta(before, after)
        assert d["counters"] == {"a": 3, "b": 1}


# --------------------------------------------------------------------------
# Chrome trace exporter: structural contract
# --------------------------------------------------------------------------

def _validate_chrome_trace(doc: dict) -> list[dict]:
    """Assert the Trace Event Format contract; return the X events."""
    assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
    assert doc["displayTimeUnit"] in ("ms", "ns")
    xs, metas = [], []
    for ev in doc["traceEvents"]:
        assert ev["ph"] in ("X", "M")
        (xs if ev["ph"] == "X" else metas).append(ev)
        assert isinstance(ev["pid"], int) and isinstance(ev["tid"], int)
    tids = {ev["tid"] for ev in xs}
    named = {ev["tid"] for ev in metas if ev.get("name") == "thread_name"}
    assert tids <= named, "every tid must carry thread_name metadata"
    for ev in xs:
        assert isinstance(ev["name"], str) and ev["name"]
        assert ev["ts"] >= 0 and ev["dur"] >= 0
        assert "span_id" in ev["args"]
    return xs


class TestChromeExport:
    def test_structure_and_roundtrip(self, rng, tmp_path):
        A = random_matrix(rng, 12, 12, 0.4)
        C = grb.Matrix(grb.INT64, 12, 12)
        with obs.capture() as cap:
            grb.mxm(C, None, None, grb.PLUS_TIMES[grb.INT64], A, A)
        path = tmp_path / "trace.json"
        cap.export_chrome(path)
        doc = json.loads(path.read_text())  # must be valid JSON on disk
        xs = _validate_chrome_trace(doc)
        assert {ev["name"] for ev in xs} >= {"mxm", "spgemm"}

    def test_numpy_attrs_serialize(self):
        sink = obs.SpanSink()
        sp = sink.open("k", "kernel", nnz=np.int64(7), ratio=np.float64(0.5))
        sink.close(sp)
        doc = obs.chrome_trace(sink.spans)
        json.dumps(doc)  # numpy scalars must have been coerced
        (ev,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert ev["args"]["nnz"] == 7

    def test_timestamps_relative_and_ordered(self, rng):
        A = random_matrix(rng, 10, 10, 0.4)
        C = grb.Matrix(grb.INT64, 10, 10)
        with obs.capture() as cap:
            grb.mxm(C, None, None, grb.PLUS_TIMES[grb.INT64], A, A)
            grb.apply(C, None, None, grb.AINV[grb.INT64], C)
        xs = [e for e in cap.chrome_trace()["traceEvents"] if e["ph"] == "X"]
        assert min(e["ts"] for e in xs) == 0  # rebased to the window start


# --------------------------------------------------------------------------
# Per-label report: provenance rendering
# --------------------------------------------------------------------------

class TestReport:
    def test_fusion_provenance_line(self, rng):
        grb.init(grb.Mode.NONBLOCKING)
        A = random_matrix(rng, 8, 8, 0.4)
        C = grb.Matrix(grb.INT64, 8, 8)
        with obs.capture() as cap:
            grb.mxm(C, None, None, grb.PLUS_TIMES[grb.INT64], A, A)
            grb.apply(C, None, None, grb.AINV[grb.INT64], C)
            grb.wait()
        report = cap.report()
        assert "mxm+apply[fused]" in report
        assert "fusion: mxm" in report and "apply" in report
        assert cap.queue_delta()["fused"] == 1

    def test_cse_provenance_line(self, rng):
        grb.init(grb.Mode.NONBLOCKING)
        s = grb.PLUS_TIMES[grb.INT64]
        A = random_matrix(rng, 8, 8, 0.4)
        C1 = grb.Matrix(grb.INT64, 8, 8)
        C2 = grb.Matrix(grb.INT64, 8, 8)
        with obs.capture() as cap:
            grb.mxm(C1, None, None, s, A, A)
            grb.mxm(C2, None, None, s, A, A)
            grb.wait()
        report = cap.report()
        assert "mxm[cse]" in report and "cse:" in report
        assert cap.counters.get("op.cse_reuses", 0) == 1

    def test_report_has_counter_tail_and_flops(self, rng):
        A = random_matrix(rng, 12, 12, 0.4)
        C = grb.Matrix(grb.INT64, 12, 12)
        with obs.capture() as cap:
            grb.mxm(C, None, None, grb.PLUS_TIMES[grb.INT64], A, A)
        report = cap.report()
        assert "spgemm" in report and "kernel" in report
        assert "kernel.flops_realized" in report
        assert "flops est/real" in report


# --------------------------------------------------------------------------
# Acceptance: the paper's BC example under capture
# --------------------------------------------------------------------------

class TestBetweennessAcceptance:
    def _run_bc(self):
        from repro.algorithms import bc_update
        from repro.io import rmat

        A = rmat(6, 8, seed=7, domain=grb.INT32)
        with obs.capture() as cap:
            delta = bc_update(A, np.arange(4))
        return cap, delta

    def test_chrome_trace_validates(self, tmp_path):
        cap, _ = self._run_bc()
        path = tmp_path / "bc_trace.json"
        cap.export_chrome(path)
        xs = _validate_chrome_trace(json.loads(path.read_text()))
        names = {ev["name"] for ev in xs}
        assert "mxm" in names and "spgemm" in names

    def test_report_and_counters(self):
        cap, delta = self._run_bc()
        report = cap.report()
        assert "spgemm" in report and "mxm" in report
        c = cap.counters
        assert c["kernel.invocations"] >= 1
        assert c["kernel.flops_realized"] > 0
        assert delta.nvals() >= 0  # result object survived the capture

    def test_nonblocking_bc_matches_blocking(self):
        from repro.algorithms import bc_update
        from repro.io import rmat

        A = rmat(6, 8, seed=7, domain=grb.INT32)
        blocking = bc_update(A, np.arange(4)).extract_tuples()

        context._reset()
        grb.init(grb.Mode.NONBLOCKING)
        A2 = rmat(6, 8, seed=7, domain=grb.INT32)
        with obs.capture() as cap:
            delta = bc_update(A2, np.arange(4))
            grb.wait()
        nb = delta.extract_tuples()
        for g, w in zip(nb, blocking):
            assert np.array_equal(g, w)
        assert cap.spans_of("drain")  # the planner actually ran under obs
