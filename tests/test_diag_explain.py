"""Plan EXPLAIN: the rendered record must match what the planner actually
did — every contraction named, sharing request ids on CSE merges, the
chosen kernel backend — plus the wire command and the CLI entry point.
"""

from __future__ import annotations

import json

import pytest

import repro as grb
from repro import context, obs, parallel
from repro.fuzz.generator import generate_program
from repro.kernels import codegen as cg
from repro.obs.diag import explain as diag_explain
from repro.obs.diag.__main__ import main as diag_main
from repro.obs.tracing import TraceContext
from repro.service.client import Client
from repro.service.service import Service, ServiceConfig

ENTRIES = [[0, 1, 1.0], [1, 2, 2.0], [2, 0, 3.0], [0, 3, 0.5], [3, 1, 1.5]]
SEMIRING = "GrB_PLUS_TIMES_SEMIRING_FP64"
BINOP = "GrB_PLUS_FP64"


def _two_request_batch(explain: bool = True, kernel_backend="interpreter"):
    """One batch, two requests.  Each request runs

        mxm(t = g*g); apply(t = -t)   # producer→consumer: fuses
        mxm(s = g*g)                  # identical across requests: CSEs

    so one drain exhibits two fused chains plus one cross-request CSE
    merge whose surviving kernel serves both request ids.  Returns the
    (already shut down) service, responses, and the captured spans."""
    svc = Service(ServiceConfig(
        workers=1, autostart=False, kernel_backend=kernel_backend
    ))
    try:
        sess = svc.open_session("xp")
        f0 = svc.submit(sess, "define", {
            "name": "g", "kind": "matrix", "dtype": "FP64",
            "shape": [8, 8], "entries": ENTRIES,
        })
        futs = []
        for rid in ("rq-a", "rq-b"):
            futs.append(svc.submit(sess, "program", {
                "declare": [
                    {"name": f"t_{rid}", "kind": "matrix", "dtype": "FP64",
                     "shape": [8, 8]},
                    {"name": f"s_{rid}", "kind": "matrix", "dtype": "FP64",
                     "shape": [8, 8]},
                ],
                "calls": [
                    {"kind": "mxm", "out": f"t_{rid}",
                     "args": {"a": "g", "b": "g", "semiring": SEMIRING}},
                    {"kind": "apply", "out": f"t_{rid}",
                     "args": {"a": f"t_{rid}", "unary": "GrB_AINV_FP64"}},
                    {"kind": "mxm", "out": f"s_{rid}",
                     "args": {"a": "g", "b": "g", "semiring": SEMIRING}},
                ],
            }, trace=TraceContext.mint(request_id=rid), explain=explain))
        with obs.capture() as cap:
            svc.start()
            f0.result(timeout=30)
            out = [f.result(timeout=30) for f in futs]
        return svc, out, cap.spans
    finally:
        svc.shutdown()


class TestPinnedTwoRequestBatch:
    """The acceptance pin: a fused+CSE'd two-request batch, EXPLAIN
    verified node-for-node against the planner's own counters (what the
    captured spans say actually ran)."""

    def test_explain_names_every_contraction(self):
        svc, out, spans = _two_request_batch()
        ran_fused = [sp for sp in spans if "fused_of" in sp.attrs]
        ran_cse = [sp for sp in spans if "cse_of" in sp.attrs]
        assert len(ran_fused) == 2 and len(ran_cse) == 1, (
            "batch did not fuse + CSE as pinned"
        )

        for rid, resp in zip(("rq-a", "rq-b"), out):
            record = resp["explain"]
            assert record["request_id"] == rid
            # both requests drained in one plan
            plans = record["plans"]
            assert len(plans) == 1
            p = plans[0]
            assert p["optimize"] is True
            assert p["kernel_backend"] == "interpreter"
            # the plan-level counters match what actually executed
            assert p["fused_chains"] == len(ran_fused)
            assert p["cse_merged"] == len(ran_cse)
            for node in p["nodes"]:
                assert rid in node["request_ids"]
                if node["kind"] == "fused":
                    assert node["ops"] == ["mxm", "apply"]
                    assert node["backend"] == "interpreter"
            # every request's view names its own fused contraction
            assert any(n["kind"] == "fused" for n in p["nodes"])
            text = record["text"]
            assert f"EXPLAIN for request {rid}" in text
            assert "fused chain of 2: mxm -> apply" in text
            assert "shared by: rq-a, rq-b" in text

        # the CSE'd duplicate lands in the *second* request's view and
        # points at the surviving kernel, which names both requests
        b_nodes = out[1]["explain"]["plans"][0]["nodes"]
        dup = [n for n in b_nodes if n["kind"] == "cse"]
        assert len(dup) == 1
        source_idx = dup[0]["cse_source"]
        shared = [n for n in b_nodes if n["index"] == source_idx]
        assert shared and set(shared[0]["request_ids"]) == {"rq-a", "rq-b"}
        assert "cse: reuses T of node" in out[1]["explain"]["text"]
        # the shared kernel appears in rq-a's view too
        a_nodes = out[0]["explain"]["plans"][0]["nodes"]
        assert any(
            set(n["request_ids"]) == {"rq-a", "rq-b"} for n in a_nodes
        )
        assert svc.last_explain is not None
        assert len(svc.last_explain["plans"]) >= 1

        # under codegen EXPLAIN claims a compile only where one happens:
        # mxm→apply(AINV_FP64) is numba-eligible, so the flag is exactly
        # whether numba is importable here
        _, out, _ = _two_request_batch(kernel_backend="codegen")
        for resp in out:
            p = resp["explain"]["plans"][0]
            assert p["kernel_backend"] == "codegen"
            fused = [n for n in p["nodes"] if n["kind"] == "fused"]
            assert fused
            for node in fused:
                assert node["compile_eligible"] is cg._numba_available()

    def test_explain_is_opt_in(self):
        svc, out, _ = _two_request_batch(explain=False)
        assert all("explain" not in r for r in out)


class TestServiceSurface:
    def test_request_kwarg_roundtrip(self):
        with Service(workers=1) as svc:
            c = Client(svc)
            c.define("g", "matrix", "FP64", (4, 4), ENTRIES[:3])
            r = c.request("program", {
                "declare": [{"name": "t", "kind": "matrix", "dtype": "FP64",
                             "shape": [4, 4]}],
                "calls": [{"kind": "mxm", "out": "t",
                           "args": {"a": "g", "b": "g",
                                    "semiring": SEMIRING}}],
            }, explain=True)
            record = r["explain"]
            assert record["plans"]
            assert "memo" in record and "snapshot" in record
            assert "mxm" in record["text"]

    def test_wire_command_and_json_kind(self):
        from repro.service.server import Server

        with Server(port=0).start() as server:
            host, port = server.address
            from repro.service.client import TCPClient

            cli = TCPClient(host, port)
            try:
                # before any explain'd request the wire command reports so
                resp = server.handle_plain("explain")
                assert "no EXPLAIN record" in resp
                cli.define("g", "matrix", "FP64", (4, 4), ENTRIES[:3])
                r = cli.call("program", {
                    "declare": [{"name": "t", "kind": "matrix",
                                 "dtype": "FP64", "shape": [4, 4]}],
                    "calls": [{"kind": "mxm", "out": "t",
                               "args": {"a": "g", "b": "g",
                                        "semiring": SEMIRING}}],
                }, explain=True)
                assert r["explain"]["plans"]
                # the plaintext command renders the last collected batch
                rendered = server.handle_plain("explain")
                assert "plan 1:" in rendered
                record = cli.call("explain")
                assert record["plans"]
            finally:
                cli.close()

    def test_serial_plan_explain(self):
        """Planner off still yields a faithful program-order record."""
        from repro import planner

        with diag_explain.collect() as col:
            grb.init(grb.Mode.NONBLOCKING)
            planner.configure(enabled=False)
            A = grb.Matrix.from_coo(
                grb.FP64, 4, 4,
                [0, 1], [1, 2], [1.0, 2.0],
            )
            C = grb.Matrix(grb.FP64, 4, 4)
            grb.mxm(C, None, None, grb.PLUS_TIMES[grb.FP64], A, A)
            grb.wait()
        rec = col.record()
        assert rec["plans"]
        assert rec["plans"][0]["optimize"] is False


class TestProgramCLI:
    def test_explain_program_over_fuzz_corpus(self):
        prog = generate_program(11, 0)
        record = diag_explain.explain_program(prog)
        assert record["plans"]
        text = diag_explain.render_text(record)
        assert "plan 1:" in text

    def test_cli_text_and_json(self, tmp_path, capsys):
        prog = generate_program(11, 1)
        path = tmp_path / "prog.json"
        path.write_text(prog.to_json())
        assert diag_main(["explain", str(path)]) == 0
        out = capsys.readouterr().out
        assert "plan" in out
        assert diag_main(["explain", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["plans"]
