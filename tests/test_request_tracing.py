"""Request-scoped tracing: TraceContext propagation, planner provenance
merge, per-request latency decomposition, SLO tracking, and the live
telemetry endpoints."""

import json
import re
import socket
import time

import numpy as np
import pytest

import repro as grb
from repro import context, obs
from repro.obs import tracing
from repro.obs.export import prometheus_text, timeline_html
from repro.obs.tracing import DrainAccounting, TraceContext
from repro.service import Client, Service, ServiceConfig, TCPClient
from repro.service.loadgen import build_streams, run_direct, timing_summary

SEMIRING = "GrB_PLUS_TIMES_SEMIRING_FP64"
ENTRIES = [[0, 1, 1.0], [1, 2, 2.0], [2, 3, 3.0], [3, 0, 4.0], [0, 2, 5.0]]


def _random_matrix(rng, n, density=0.4):
    A = grb.Matrix(grb.FP64, n, n)
    cells = [(i, j) for i in range(n) for j in range(n)]
    idx = rng.choice(len(cells), max(1, int(len(cells) * density)), replace=False)
    rows = np.array([cells[k][0] for k in idx])
    cols = np.array([cells[k][1] for k in idx])
    A.build(rows, cols, rng.random(len(idx)) + 0.5)
    return A


# --------------------------------------------------------------------------
# TraceContext plumbing
# --------------------------------------------------------------------------

class TestTraceContext:
    def test_mint_is_unique(self):
        a, b = TraceContext.mint(), TraceContext.mint()
        assert a.trace_id != b.trace_id
        assert a.request_id != b.request_id

    def test_wire_round_trip(self):
        t = TraceContext.mint(request_id="req-9")
        assert TraceContext.from_wire(t.to_wire()) == t

    @pytest.mark.parametrize("doc", [
        None, "nope", 7, {}, {"trace_id": "x"}, {"request_id": "y"},
        {"trace_id": 1, "request_id": "y"},
    ])
    def test_from_wire_malformed_is_none(self, doc):
        # tracing is best-effort: bad wire input must never raise
        assert TraceContext.from_wire(doc) is None

    def test_use_nests_and_restores(self):
        t1, t2 = TraceContext.mint(), TraceContext.mint()
        assert tracing.current_trace() is None
        with tracing.use(t1):
            assert tracing.current_trace() is t1
            with tracing.use(t2):
                assert tracing.current_trace() is t2
            assert tracing.current_trace() is t1
        assert tracing.current_trace() is None


class TestDrainAccounting:
    def test_shares_sum_to_wall_by_flops(self):
        acc = DrainAccounting()
        acc.note(["a"], 0.001, 300)
        acc.note(["b"], 0.009, 100)
        shares = acc.shares(1.0)
        assert shares["a"] == pytest.approx(0.75)
        assert shares["b"] == pytest.approx(0.25)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_shared_node_splits_weight(self):
        acc = DrainAccounting()
        acc.note(["a", "b"], 0.002, 100)
        shares = acc.shares(2.0)
        assert shares["a"] == pytest.approx(shares["b"]) == pytest.approx(1.0)

    def test_seconds_fallback_when_no_flops(self):
        acc = DrainAccounting()
        acc.note(["a"], 0.003, 0)
        acc.note(["b"], 0.001, 0)
        shares = acc.shares(4.0)
        assert shares["a"] == pytest.approx(3.0)
        assert shares["b"] == pytest.approx(1.0)

    def test_empty_drain_has_no_shares(self):
        assert DrainAccounting().shares(1.0) == {}


# --------------------------------------------------------------------------
# Planner provenance: stamps survive fusion and CSE (merge, not loss)
# --------------------------------------------------------------------------

class TestPlannerProvenance:
    def test_deferred_op_span_carries_request_id(self):
        grb.init(grb.Mode.NONBLOCKING)
        rng = np.random.default_rng(7)
        A = _random_matrix(rng, 8)
        C = grb.Matrix(grb.FP64, 8, 8)
        t = TraceContext.mint(request_id="solo")
        with tracing.use(t):
            grb.mxm(C, None, None, grb.PLUS_TIMES[grb.FP64], A, A)
        with obs.capture() as cap:
            grb.wait()
        ops = [sp for sp in cap.spans if sp.kind == "op" and sp.deferred]
        assert ops and all(
            sp.attrs.get("request_ids") == ["solo"] for sp in ops
        )
        assert all(sp.attrs.get("trace_ids") == [t.trace_id] for sp in ops)

    def test_kernel_span_inherits_request_ids(self):
        grb.init(grb.Mode.NONBLOCKING)
        rng = np.random.default_rng(7)
        A = _random_matrix(rng, 10)
        C = grb.Matrix(grb.FP64, 10, 10)
        with tracing.use(TraceContext.mint(request_id="kern")):
            grb.mxm(C, None, None, grb.PLUS_TIMES[grb.FP64], A, A)
        with obs.capture() as cap:
            grb.wait()
        kernels = [sp for sp in cap.spans if sp.kind == "kernel"]
        assert kernels and all(
            sp.attrs.get("request_ids") == ["kern"] for sp in kernels
        )

    def test_cse_source_absorbs_duplicate_ids(self):
        grb.init(grb.Mode.NONBLOCKING)
        rng = np.random.default_rng(11)
        A = _random_matrix(rng, 8)
        C = grb.Matrix(grb.FP64, 8, 8)
        D = grb.Matrix(grb.FP64, 8, 8)
        s = grb.PLUS_TIMES[grb.FP64]
        with tracing.use(TraceContext.mint(request_id="first")):
            grb.mxm(C, None, None, s, A, A)
        with tracing.use(TraceContext.mint(request_id="second")):
            grb.mxm(D, None, None, s, A, A)
        with obs.capture() as cap:
            grb.wait()
        assert context.queue_stats()["cse"] >= 1
        # the kernel that actually ran serves both requests
        sources = [sp for sp in cap.spans
                   if sp.kind == "op" and sp.deferred
                   and "cse_of" not in sp.attrs]
        assert any(
            sp.attrs.get("request_ids") == ["first", "second"]
            for sp in sources
        )
        # the elided duplicate keeps only its own id
        dups = [sp for sp in cap.spans if "cse_of" in sp.attrs]
        assert dups and dups[0].attrs["request_ids"] == ["second"]

    def test_untraced_ops_have_no_provenance(self):
        grb.init(grb.Mode.NONBLOCKING)
        rng = np.random.default_rng(5)
        A = _random_matrix(rng, 8)
        C = grb.Matrix(grb.FP64, 8, 8)
        grb.mxm(C, None, None, grb.PLUS_TIMES[grb.FP64], A, A)
        with obs.capture() as cap:
            grb.wait()
        ops = [sp for sp in cap.spans if sp.kind == "op" and sp.deferred]
        assert ops and all("request_ids" not in sp.attrs for sp in ops)


# --------------------------------------------------------------------------
# The pinned cross-request fusion test: two requests, one kernel, both ids
# --------------------------------------------------------------------------

class TestServiceProvenance:
    def test_fused_span_carries_both_request_ids(self):
        """Two requests of one batch whose deferred ops fuse: the merged
        mxm+apply span must name *both* originating requests."""
        svc = Service(ServiceConfig(workers=1, autostart=False))
        try:
            sess = svc.open_session("fuse")
            ta = TraceContext.mint(request_id="req-mxm")
            tb = TraceContext.mint(request_id="req-apply")
            f0 = svc.submit(sess, "define", {
                "name": "g", "kind": "matrix", "dtype": "FP64",
                "shape": [8, 8], "entries": ENTRIES,
            })
            f1 = svc.submit(sess, "program", {
                "declare": [{"name": "C", "kind": "matrix",
                             "dtype": "FP64", "shape": [8, 8]}],
                "calls": [{"kind": "mxm", "out": "C",
                           "args": {"a": "g", "b": "g",
                                    "semiring": SEMIRING}}],
            }, trace=ta)
            f2 = svc.submit(sess, "program", {
                "calls": [{"kind": "apply", "out": "C",
                           "args": {"a": "C", "unary": "GrB_AINV_FP64"}}],
            }, trace=tb)
            with obs.capture() as cap:
                svc.start()
                for f in (f0, f1, f2):
                    f.result(timeout=30)
        finally:
            svc.shutdown()
        fused = [sp for sp in cap.spans if "fused_of" in sp.attrs]
        assert fused, "the batch drain did not fuse the mxm+apply pair"
        sp = fused[0]
        assert sp.attrs["request_ids"] == ["req-apply", "req-mxm"]
        assert sorted(sp.attrs["trace_ids"]) == sorted(
            [ta.trace_id, tb.trace_id]
        )
        # kernel spans under the fused node inherit the merged provenance
        kernels = [k for k in cap.spans
                   if k.kind == "kernel" and k.parent == sp.sid]
        assert kernels and all(
            k.attrs["request_ids"] == ["req-apply", "req-mxm"]
            for k in kernels
        )

    def test_four_stream_load_attributes_every_deferred_span(self):
        """The acceptance run: 4 concurrent loadgen streams, batching on —
        every drain-scheduled op span and every kernel under one carries at
        least one originating request id."""
        streams = build_streams(seed=3, clients=4, requests=24)
        with obs.capture() as cap:
            out = run_direct(streams, seed=3, workers=2, pipeline=4)
        assert not out["errors"]
        deferred_ops = [sp for sp in cap.spans
                        if sp.kind == "op" and sp.deferred]
        assert deferred_ops, "batched load produced no drain-scheduled ops"
        for sp in deferred_ops:
            assert sp.attrs.get("request_ids"), (
                f"unattributed drain-scheduled span {sp.label!r}"
            )
        op_sids = {sp.sid for sp in deferred_ops}
        drain_kernels = [sp for sp in cap.spans
                         if sp.kind == "kernel" and sp.parent in op_sids]
        assert drain_kernels
        for sp in drain_kernels:
            assert sp.attrs.get("request_ids"), (
                f"unattributed kernel span {sp.label!r}"
            )


# --------------------------------------------------------------------------
# Per-request latency decomposition
# --------------------------------------------------------------------------

class TestTimingDecomposition:
    def test_timing_is_opt_in(self):
        with Service(workers=1) as svc:
            c = Client(svc)
            plain = c.request("define", {
                "name": "g", "kind": "matrix", "dtype": "FP64",
                "shape": [4, 4], "entries": ENTRIES[:3],
            })
            assert "timing" not in plain
            timed = c.request("query", {"name": "g"}, timing=True)
            assert set(timed["timing"]) >= {
                "trace_id", "request_id", "queue_wait_us", "issue_us",
                "drain_share_us", "total_us",
            }

    def test_breakdown_sums_to_wall_within_10pct(self):
        """queue-wait + issue + drain-share ≈ the request's wall latency
        (single in-flight request, so the drain share is the whole drain
        and nothing waits on batchmates)."""
        n = 56
        rng = np.random.default_rng(13)
        cells = [(i, j) for i in range(n) for j in range(n) if i != j]
        idx = rng.choice(len(cells), int(len(cells) * 0.35), replace=False)
        entries = [[int(cells[k][0]), int(cells[k][1]), 1.0] for k in idx]
        with Service(workers=1) as svc:
            c = Client(svc)
            c.define("g", "matrix", "FP64", [n, n], entries=entries)
            # several deferred products: the drain dominates the wall, so
            # fixed per-request overheads stay inside the 10% budget
            calls = [{"kind": "mxm", "out": "t",
                      "args": {"a": "g", "b": "g", "semiring": SEMIRING}}]
            calls += [{"kind": "mxm", "out": "t",
                       "args": {"a": "t", "b": "g", "semiring": SEMIRING}}
                      for _ in range(3)]
            t0 = time.monotonic()
            out = c.program(
                calls,
                declare=[{"name": "t", "kind": "matrix", "dtype": "FP64",
                          "shape": [n, n]}],
                timing=True,
            )
            wall_us = (time.monotonic() - t0) * 1e6
        tm = out["timing"]
        explained = tm["queue_wait_us"] + tm["issue_us"] + tm["drain_share_us"]
        assert explained == pytest.approx(tm["total_us"], rel=0.10), (
            f"decomposition {explained:.0f}us vs total {tm['total_us']:.0f}us"
        )
        # the server-side total itself tracks the client-observed wall
        assert tm["total_us"] == pytest.approx(wall_us, rel=0.25)

    def test_stats_exposes_breakdown_histograms(self):
        with Service(workers=1) as svc:
            c = Client(svc)
            c.request("define", {
                "name": "g", "kind": "matrix", "dtype": "FP64",
                "shape": [4, 4], "entries": ENTRIES[:3],
            }, timing=True)
            st = svc.stats()
        bd = st["breakdown"]
        assert set(bd) == {"queue_wait", "issue", "drain", "drain_share"}
        assert bd["queue_wait"]["count"] >= 1
        assert bd["issue"]["p99_us"] is not None

    def test_timing_summary_aggregates(self):
        results = [[
            {"timing": {"queue_wait_us": 10.0, "issue_us": 20.0,
                        "drain_share_us": 70.0, "total_us": 100.0}},
            {"nvals": 3},
        ]]
        s = timing_summary(results)
        assert s["count"] == 1
        assert s["coverage_mean"] == pytest.approx(1.0)
        assert s["issue_us"]["p99"] == 20.0


# --------------------------------------------------------------------------
# SLO tracking through the service
# --------------------------------------------------------------------------

class TestServiceSLO:
    def test_slo_block_in_stats_and_health(self):
        with Service(workers=1, slo_p99_ms=10_000.0) as svc:
            c = Client(svc)
            c.request("define", {
                "name": "g", "kind": "matrix", "dtype": "FP64",
                "shape": [4, 4], "entries": ENTRIES[:3],
            })
            st = svc.stats()
            assert st["slo"]["target_p99_us"] == pytest.approx(1e7)
            assert st["slo"]["window_count"] >= 1
            assert st["slo"]["window_met"] is True
            h = svc.health()
            assert h["status"] == "ok"
            assert h["slo_met"] is True

    def test_impossible_slo_burns_budget(self):
        now = [1000.0]
        with Service(workers=1, slo_p99_ms=1e-6) as svc:
            # the same 1 ns target on a fake clock, so epochs roll on demand
            svc.slo = obs.SLOTracker(svc.slo.target_us, clock=lambda: now[0])
            c = Client(svc)

            def burst():
                for _ in range(3):
                    try:
                        c.request("query", {"name": "nope"})
                    except Exception:
                        pass

            burst()
            s = svc.slo.summary()
            assert s["breaches"] == s["window_breaches"] == 3
            assert s["burn_rate"] > 1.0
            assert s["window_met"] is False
            # failed requests rank above every latency
            assert s["window_p99_us"] == float("inf")
            now[0] += svc.slo.window_s   # the first burst's epoch is previous
            burst()
            s = svc.slo.summary()
            assert s["window_count"] == s["window_breaches"] == 6
            now[0] += svc.slo.window_s   # the first burst rolls out
            s = svc.slo.summary()
            assert s["window_count"] == s["window_breaches"] == 3
            now[0] += svc.slo.window_s   # and the second
            s = svc.slo.summary()
            assert s["window_count"] == s["window_breaches"] == 0
            assert s["window_p99_us"] is None and s["window_met"] is True
            # the lifetime budget keeps counting both epochs of breaches
            assert s["breaches"] == s["total"] == 6
            assert s["burn_rate"] > 1.0

    def test_no_slo_configured_is_none(self):
        with Service(workers=1) as svc:
            assert svc.stats()["slo"] is None
            assert "slo_met" not in svc.health()


# --------------------------------------------------------------------------
# Live endpoints: wire tracing, metrics text, health, timeline export
# --------------------------------------------------------------------------

def _read_all(host, port, payload: bytes) -> bytes:
    s = socket.create_connection((host, port), timeout=10)
    try:
        s.sendall(payload)
        buf = b""
        while True:
            chunk = s.recv(65536)
            if not chunk:
                return buf
            buf += chunk
    finally:
        s.close()


_PROM_LINE = re.compile(
    r"^(# (TYPE|HELP) [a-zA-Z_][a-zA-Z0-9_]* \w+"
    r"|[a-zA-Z_][a-zA-Z0-9_]*(\{[^}]*\})? [^ ]+)$"
)


class TestLiveEndpoints:
    def test_trace_rides_the_wire(self):
        from repro.service.server import serve

        with serve(port=0) as srv:
            host, port = srv.address
            c = TCPClient(host, port)
            c.define("g", "matrix", "FP64", [4, 4], entries=ENTRIES[:3])
            mine = TraceContext.mint(request_id="wire-req-1")
            out = c.call("query", {"name": "g"}, trace=mine, timing=True)
            assert out["timing"]["request_id"] == "wire-req-1"
            assert out["timing"]["trace_id"] == mine.trace_id
            c.close()

    def test_health_admin_and_parity(self):
        from repro.service.server import serve

        with serve(port=0) as srv:
            host, port = srv.address
            c = TCPClient(host, port)
            remote = c.health()
            local = srv.service.health()
            assert remote["status"] == local["status"] == "ok"
            assert set(remote) == set(local)
            c.close()

    def test_plaintext_metrics_is_valid_prometheus(self):
        from repro.service.server import serve

        with serve(port=0) as srv:
            host, port = srv.address
            c = TCPClient(host, port)
            c.define("g", "matrix", "FP64", [4, 4], entries=ENTRIES[:3])
            c.close(close_session=False)
            text = _read_all(host, port, b"metrics\n").decode()
        lines = [ln for ln in text.splitlines() if ln]
        assert lines and text.endswith("\n")
        for ln in lines:
            assert _PROM_LINE.match(ln), f"invalid exposition line: {ln!r}"
        assert "repro_service_admitted_total" in text
        assert 'repro_service_latency_us_bucket{le="+Inf"}' in text
        assert "repro_service_up 1" in text

    def test_plaintext_health_probe(self):
        from repro.service.server import serve

        with serve(port=0) as srv:
            host, port = srv.address
            doc = json.loads(_read_all(host, port, b"health\n").decode())
        assert doc["status"] == "ok"
        assert doc["workers"] >= 1

    def test_json_protocol_still_works_after_plain_probe(self):
        from repro.service.server import serve

        with serve(port=0) as srv:
            host, port = srv.address
            _read_all(host, port, b"health\n")
            c = TCPClient(host, port)
            assert c.ping() == {"pong": True}
            c.close()


class TestExporters:
    def test_prometheus_text_histogram_is_cumulative(self):
        # 50 and 60 in octave [32, 64) (buckets 5*32 + 18 and + 28), 200
        # in [128, 256) (bucket 7*32 + 18): one le line per octave 5..7
        snap = {
            "counters": {"kernel.invocations": 2},
            "histograms": {"service.latency_us": {
                "count": 3, "total": 310.0, "min": 50.0, "max": 200.0,
                "buckets": [[178, 1], [188, 1], [242, 1]],
            }},
        }
        text = prometheus_text(snap)
        assert "repro_kernel_invocations_total 2" in text
        les = re.findall(
            r'repro_service_latency_us_bucket\{le="([^"]+)"\} (\d+)', text
        )
        assert les == [("64.0", "2"), ("128.0", "2"), ("256.0", "3"),
                       ("+Inf", "3")]
        assert "repro_service_latency_us_count 3" in text

    def test_chrome_trace_has_process_and_thread_names(self):
        grb.init(grb.Mode.NONBLOCKING)
        rng = np.random.default_rng(3)
        A = _random_matrix(rng, 8)
        C = grb.Matrix(grb.FP64, 8, 8)
        grb.mxm(C, None, None, grb.PLUS_TIMES[grb.FP64], A, A)
        with obs.capture() as cap:
            grb.wait()
        doc = cap.chrome_trace()
        meta = [e for e in doc["traceEvents"] if e.get("ph") == "M"]
        names = {e["name"] for e in meta}
        assert {"process_name", "process_sort_index",
                "thread_name", "thread_sort_index"} <= names
        proc = next(e for e in meta if e["name"] == "process_name")
        assert proc["args"]["name"]

    def test_timeline_html_renders_request_lanes(self):
        svc = Service(ServiceConfig(workers=1, autostart=False))
        try:
            sess = svc.open_session("tl")
            t = TraceContext.mint(request_id="lane-1")
            f0 = svc.submit(sess, "define", {
                "name": "g", "kind": "matrix", "dtype": "FP64",
                "shape": [8, 8], "entries": ENTRIES,
            }, trace=t)
            f1 = svc.submit(sess, "program", {
                "declare": [{"name": "C", "kind": "matrix",
                             "dtype": "FP64", "shape": [8, 8]}],
                "calls": [{"kind": "mxm", "out": "C",
                           "args": {"a": "g", "b": "g",
                                    "semiring": SEMIRING}}],
            }, trace=t)
            with obs.capture() as cap:
                svc.start()
                f0.result(timeout=30), f1.result(timeout=30)
        finally:
            svc.shutdown()
        html = timeline_html(
            cap.spans,
            request_timings={"lane-1": {
                "queue_wait_us": 10.0, "issue_us": 20.0,
                "drain_share_us": 30.0,
            }},
        )
        assert "<!doctype html>" in html
        assert "request lane-1" in html
        assert "drain-share 30us" in html
        assert "Per-thread flamegraph" in html

    def test_timeline_html_empty_capture(self):
        html = timeline_html([])
        assert "no spans captured" in html

    def test_capture_export_timeline(self, tmp_path):
        grb.init(grb.Mode.NONBLOCKING)
        rng = np.random.default_rng(3)
        A = _random_matrix(rng, 8)
        C = grb.Matrix(grb.FP64, 8, 8)
        with tracing.use(TraceContext.mint(request_id="f")):
            grb.mxm(C, None, None, grb.PLUS_TIMES[grb.FP64], A, A)
        with obs.capture() as cap:
            grb.wait()
        out = tmp_path / "timeline.html"
        cap.export_timeline(out)
        assert "request f" in out.read_text()
