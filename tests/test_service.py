"""The multi-tenant graph service: sessions, admission control, batched
execution, concurrency correctness, and the TCP front-end."""

import threading
import time

import numpy as np
import pytest

import repro as grb
from repro import context, validation
from repro.service import (
    BadRequest,
    Client,
    DeadlineExceeded,
    ObjectNotFound,
    QueueFull,
    Service,
    ServiceConfig,
    ServiceClosed,
    SessionNotFound,
    TCPClient,
)
from repro.service.loadgen import build_streams, diff_results, run_direct

ENTRIES = [[0, 1, 1.0], [1, 2, 1.0], [2, 3, 1.0], [3, 0, 1.0], [0, 2, 1.0]]


def _define_graph(c, name="g", n=4, entries=ENTRIES):
    return c.define(name, "matrix", "FP64", [n, n], entries=entries)


@pytest.fixture
def svc():
    with Service(workers=2, queue_capacity=8) as s:
        yield s


class TestSessions:
    def test_open_generates_names(self, svc):
        a, b = svc.open_session(), svc.open_session()
        assert a != b

    def test_reopen_is_noop(self, svc):
        assert svc.open_session("x") == "x"
        assert svc.open_session("x") == "x"

    def test_unknown_session_rejected(self, svc):
        with pytest.raises(SessionNotFound):
            svc.submit("ghost", "query", {"name": "g"})

    def test_close_session_drains_then_rejects(self, svc):
        c = Client(svc)
        _define_graph(c)
        c.close()
        with pytest.raises(SessionNotFound):
            svc.submit(c.session, "query", {"name": "g"})

    def test_shared_session_cannot_close(self, svc):
        with pytest.raises(SessionNotFound):
            svc.close_session("shared")

    def test_sessions_are_isolated(self, svc):
        a, b = Client(svc), Client(svc)
        _define_graph(a)
        with pytest.raises(ObjectNotFound):
            b.query("g")

    def test_session_context_isolation(self, svc):
        # a session's nonblocking context never leaks into the caller's
        assert context.current_mode() is context.Mode.BLOCKING
        c = Client(svc)
        _define_graph(c)
        assert context.current_mode() is context.Mode.BLOCKING


class TestRequests:
    def test_unknown_kind_rejected_synchronously(self, svc):
        s = svc.open_session()
        with pytest.raises(BadRequest):
            svc.submit(s, "frobnicate", {})

    def test_define_and_query(self, svc):
        c = Client(svc)
        assert _define_graph(c) == {"name": "g", "nvals": 5}
        assert c.query("g") == {"nvals": 5}
        t = c.query("g", "tuples")
        assert t["kind"] == "matrix" and len(t["rows"]) == 5

    def test_program_with_fetch(self, svc):
        c = Client(svc)
        _define_graph(c)
        out = c.program(
            calls=[{"kind": "mxm", "out": "C",
                    "args": {"a": "g", "b": "g",
                             "semiring": "GrB_PLUS_TIMES_SEMIRING_FP64"}}],
            declare=[{"name": "C", "kind": "matrix", "dtype": "FP64",
                      "shape": [4, 4]}],
            fetch=["C"],
        )
        fetched = out["fetched"]["C"]
        assert fetched["kind"] == "matrix" and len(fetched["rows"]) > 0

    def test_algorithm_store_and_consume(self, svc):
        c = Client(svc)
        _define_graph(c)
        r = c.algorithm("bfs_levels", "g", source=0, store_as="lv")
        assert r["stored"] == "lv"
        assert c.query("lv", "tuples")["values"] == [0, 1, 1, 2]

    def test_update_then_query_reflects_mutation(self, svc):
        c = Client(svc)
        _define_graph(c)
        r = c.update("g", set=[(3, 2, 9.0)], remove=[(0, 2)])
        assert r["nvals"] == 5
        assert c.query("g", "element", row=3, col=2) == {
            "value": 9.0, "stored": True,
        }

    def test_upload_download_round_trip(self, svc):
        c = Client(svc)
        A = grb.Matrix.from_coo(
            grb.FP64, 3, 3, [0, 1], [1, 2], [5.0, 6.0]
        )
        c.upload("m", A)
        B = c.download("m")
        assert B.nvals() == 2 and B.extract_element(1, 2) == 6.0

    def test_free(self, svc):
        c = Client(svc)
        _define_graph(c)
        assert c.free("g") == {"freed": "g"}
        with pytest.raises(ObjectNotFound):
            c.query("g")

    def test_typed_errors_surface_through_future(self, svc):
        c = Client(svc)
        with pytest.raises(ObjectNotFound):
            c.query("never-defined")
        with pytest.raises(BadRequest):
            c.request("algorithm", {"algo": "nope", "graph": "g"})

    def test_batch_responses_respect_program_order(self, svc):
        # pipelined define+updates land in one batch; each response must
        # reflect its own point in program order, not the batch's end state
        s = svc.open_session()
        futs = [svc.submit(s, "define", {
            "name": "g", "kind": "matrix", "dtype": "FP64",
            "shape": [4, 4], "entries": ENTRIES,
        })]
        for k in range(3):
            futs.append(svc.submit(s, "update", {
                "graph": "g", "set": [[3, k, 1.0]], "remove": [],
            }))
        nvals = [f.result(timeout=30).get("nvals") for f in futs]
        # (3,0) pre-exists, so the first update overwrites; the rest insert
        assert nvals == [5, 5, 6, 7]


class TestSharedGraphs:
    def test_shared_visible_to_all_sessions_readonly(self, svc):
        svc.request("shared", "define", {
            "name": "G", "kind": "matrix", "dtype": "FP64",
            "shape": [4, 4], "entries": ENTRIES,
        })
        c = Client(svc)
        assert c.query("shared:G") == {"nvals": 5}
        with pytest.raises(BadRequest):
            c.update("shared:G", set=[(0, 0, 1.0)])
        with pytest.raises(BadRequest):
            c.request("free", {"name": "shared:G"})

    def test_shared_mutation_through_shared_session(self, svc):
        svc.request("shared", "define", {
            "name": "G", "kind": "matrix", "dtype": "FP64",
            "shape": [4, 4], "entries": ENTRIES,
        })
        svc.request("shared", "update", {
            "graph": "G", "set": [[3, 3, 1.0]], "remove": [],
        })
        c = Client(svc)
        assert c.query("shared:G") == {"nvals": 6}


class TestAdmissionControl:
    def test_queue_full_rejects_with_typed_error_then_recovers(self):
        # autostart=False: fill the bounded queue deterministically
        svc = Service(workers=1, queue_capacity=3, autostart=False)
        s = svc.open_session()
        futs = [svc.submit(s, "query", {"name": "missing"})
                for _ in range(3)]
        with pytest.raises(QueueFull):
            svc.submit(s, "query", {"name": "missing"})
        assert svc.stats()["rejected_queue_full"] >= 1
        # backpressure never deadlocks: starting the pool drains the queue
        svc.start()
        for f in futs:
            with pytest.raises(ObjectNotFound):
                f.result(timeout=30)
        svc.shutdown()

    def test_deadline_expired_in_queue(self):
        svc = Service(workers=1, queue_capacity=8, autostart=False)
        s = svc.open_session()
        fut = svc.submit(s, "query", {"name": "g"}, timeout=0.01)
        time.sleep(0.05)
        svc.start()
        with pytest.raises(DeadlineExceeded):
            fut.result(timeout=30)
        assert svc.stats()["deadline_exceeded"] == 1
        svc.shutdown()

    def test_shutdown_rejects_new_work(self, svc):
        s = svc.open_session()
        svc.shutdown()
        with pytest.raises(ServiceClosed):
            svc.submit(s, "query", {"name": "g"})

    def test_nondrain_shutdown_fails_queued_futures(self):
        svc = Service(workers=1, queue_capacity=8, autostart=False)
        s = svc.open_session()
        fut = svc.submit(s, "query", {"name": "g"})
        svc.shutdown(drain=False)
        with pytest.raises(ServiceClosed):
            fut.result(timeout=5)

    def test_graceful_drain_completes_admitted_work(self):
        svc = Service(workers=2, queue_capacity=64, autostart=False)
        s = svc.open_session()
        futs = [svc.submit(s, "define", {
            "name": f"m{k}", "kind": "matrix", "dtype": "FP64",
            "shape": [3, 3], "entries": [[0, 1, float(k)]],
        }) for k in range(10)]
        svc.start()
        svc.shutdown(drain=True)
        assert [f.result(timeout=5)["nvals"] for f in futs] == [1] * 10

    def test_batching_off_runs_one_request_per_batch(self):
        # five queued requests drain as five batches of one, and every
        # timed reply carries its share of its batch's drain
        svc = Service(workers=1, queue_capacity=8, batching=False,
                      autostart=False)
        s = svc.open_session()
        futs = [svc.submit(s, "define", {
            "name": f"m{k}", "kind": "matrix", "dtype": "FP64",
            "shape": [3, 3], "entries": [[0, 1, float(k)]],
        }, timing=True) for k in range(5)]
        before = svc.stats()["batches"]
        svc.start()
        replies = [f.result(timeout=30) for f in futs]
        svc.shutdown()
        assert svc.stats()["batches"] - before == 5
        assert all("drain_share_us" in r["timing"] for r in replies)


class TestObservability:
    def test_stats_shape(self, svc):
        c = Client(svc)
        _define_graph(c)
        c.query("g")
        st = svc.stats()
        assert st["admitted"] >= 2 and st["completed"] >= 2
        assert st["latency_p50_us"] is not None
        assert st["latency_p99_us"] >= st["latency_p50_us"]
        assert c.session in st["sessions"]
        assert st["sessions"][c.session]["completed"] == 2

    def test_latency_histogram_in_registry(self, svc):
        c = Client(svc)
        _define_graph(c)
        snap = svc.metrics_snapshot()
        assert "service.latency_us" in snap["histograms"]
        assert "service.queue_wait_us" in snap["histograms"]
        assert snap["counters"]["service.batches"] >= 1

    def test_spans_capture_serving_window(self):
        from repro import obs

        with obs.capture() as cap:
            with Service(workers=2, queue_capacity=8) as svc:
                c = Client(svc)
                _define_graph(c)
                c.algorithm("bfs_levels", "g", source=0)
        kinds = {s.label for s in cap.spans}
        assert "batch" in kinds and "request:define" in kinds
        trace = cap.chrome_trace()
        assert trace["traceEvents"]

    def test_validate_all(self, svc):
        c = Client(svc)
        _define_graph(c)
        assert svc.validate_all() >= 1

    def test_client_metrics_parity_with_tcp(self):
        """Local Client and TCPClient expose the same admin surface with
        the same snapshot shape."""
        from repro.service.server import serve

        with serve(port=0) as srv:
            host, port = srv.address
            local = Client(srv.service)
            remote = TCPClient(host, port)
            _define_graph(local)
            _define_graph(remote, name="g2")

            for snap in (local.metrics(), remote.metrics()):
                assert set(snap) >= {"counters", "histograms"}
                assert snap["counters"]["service.admitted"] >= 2
                assert "service.latency_us" in snap["histograms"]
                hist = snap["histograms"]["service.latency_us"]
                assert set(hist) >= {"count", "total", "buckets"}

            for h in (local.health(), remote.health()):
                assert h["status"] in ("ok", "idle")
                assert h["workers"] >= 1
            assert local.ping() == remote.ping() == {"pong": True}
            remote.close()


class TestConcurrencyCorrectness:
    def test_concurrent_clients_match_serial_replay(self):
        # N threads over shared + private graphs; everything each client
        # saw must equal a serial replay (1 worker, no batching) of the
        # same deterministic streams
        streams = build_streams(seed=23, clients=6, requests=90)
        live = run_direct(streams, seed=23, workers=4, pipeline=6)
        assert not live["errors"]
        ref = run_direct(streams, seed=23, workers=1, batching=False,
                         pipeline=1)
        assert not ref["errors"]
        assert diff_results(live["results"], ref["results"]) == []

    def test_objects_stay_valid_under_concurrency(self):
        streams = build_streams(seed=31, clients=4, requests=40)
        svc = Service(workers=4, queue_capacity=32)
        try:
            svc.request("shared", "define", {
                "name": "G", "kind": "matrix", "dtype": "FP64",
                "shape": [8, 8], "entries": [[0, 1, 1.0], [1, 0, 2.0]],
            })
            def client_fn(ci):
                sess = svc.open_session(f"t{ci}")
                for kind, payload in streams[ci]:
                    if "shared:" in str(payload):
                        continue  # this run defines a smaller shared G
                    svc.request(sess, kind, payload)
            threads = [threading.Thread(target=client_fn, args=(i,))
                       for i in range(len(streams))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            # structural invariants of every tenant's store still hold
            assert svc.validate_all() > 0
        finally:
            svc.shutdown()


class TestTCP:
    def test_round_trip_and_typed_errors(self):
        from repro.service.server import serve

        with serve(port=0) as srv:
            host, port = srv.address
            c = TCPClient(host, port)
            _define_graph(c)
            assert c.query("g") == {"nvals": 5}
            r = c.algorithm("pagerank", "g", store_as="pr")
            assert r["stored"] == "pr"
            blob_obj = c.download("g")
            assert blob_obj.nvals() == 5
            with pytest.raises(ObjectNotFound):
                c.query("missing")
            assert c.call("ping") == {"pong": True}
            assert c.stats()["completed"] >= 3
            c.close()

    def test_two_connections_one_session(self):
        from repro.service.server import serve

        with serve(port=0) as srv:
            host, port = srv.address
            a = TCPClient(host, port, session="pair")
            b = TCPClient(host, port, session="pair")
            _define_graph(a)
            assert b.query("g") == {"nvals": 5}
            a.close(close_session=False)
            b.close()

    def test_malformed_line_is_rejected_not_fatal(self):
        import socket

        from repro.service.server import serve

        with serve(port=0) as srv:
            host, port = srv.address
            raw = socket.create_connection((host, port))
            raw.sendall(b"this is not json\n")
            resp = raw.makefile("rb").readline()
            assert b'"ok":false' in resp.replace(b" ", b"")
            raw.close()
            # the server still serves real clients afterwards
            c = TCPClient(host, port)
            assert c.call("ping") == {"pong": True}
            c.close()
