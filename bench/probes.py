"""Layer probes: short fixed measurements of one layer each.

Two batteries, each its own process (``grb.init`` is once per process):
``blocking`` times plain Table II calls, the write-pipeline ratios,
containers, io, stream and the shard backend; ``nonblocking`` times the
deferred sequence's issue / drain / planner overhead and the algorithms.
Inputs are generated from the seed; every number is the median of a fixed
count of repetitions, so a probe measures the same work on every run.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

import repro as grb
from repro import algorithms as alg
from repro import obs, parallel
from repro.io import deserialize, rmat, serialize
from repro.stream import EdgeBuffer

import workloads as wk
from workloads import AINV, FP, MON, PLUS, PT

KERNEL_SCALE = 11      # R11 / E11: the kernel probes' operands
STORE_SCALE = 13       # R13: containers, io, stream


def med_s(fn, reps: int, warm: int = 2) -> float:
    """Median wall seconds of *fn* over *reps* calls after *warm* calls."""
    for _ in range(warm):
        fn()
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return statistics.median(out)


def kernel_self_s(fn, label: str, reps: int = 5):
    """Median self time of the program's own ``kernel`` span *label* while
    *fn* runs under ``repro.obs.capture`` (+ the last span's attributes)."""
    with obs.capture() as cap:
        for _ in range(reps):
            fn()
    spans = [s for s in cap.spans if s.kind == "kernel" and s.label == label]
    return statistics.median(s.seconds for s in spans), spans[-1].attrs


def blocking(seed: int) -> dict:
    grb.init(grb.Mode.BLOCKING)
    rng = np.random.default_rng([seed, 7])
    m: dict = {}

    # ---- operations: what one Table II call costs before any work -------
    n0 = 64
    e0, c0 = grb.matrix_new(FP, n0, n0), grb.matrix_new(FP, n0, n0)
    overhead = med_s(lambda: grb.apply(c0, None, None, AINV, e0), 400, 20)
    m["operations.call_overhead_us"] = overhead * 1e6

    # ---- kernels: plain (unmasked, accum-free) calls on R11 / E11 -------
    A = wk.graph(KERNEL_SCALE, seed)
    E = wk.uniform_twin(A, seed)
    n = A.nrows
    u = wk.sparse_vector(rng, n, n // 8)
    mask = wk.sparse_vector(rng, n, n // 4)
    I = np.sort(rng.choice(n, size=n // 2, replace=False))
    J = np.sort(rng.choice(n, size=n // 2, replace=False))
    C, C2 = grb.matrix_new(FP, n, n), grb.matrix_new(FP, n, n)
    w = grb.vector_new(FP, n)
    X = grb.matrix_new(FP, n // 2, n // 2)
    grb.matrix_extract(X, None, None, E, I, J)
    T = E.dup()
    X0 = grb.matrix_new(FP, n, n)  # an empty mask, complemented: all of C

    spgemm = lambda: grb.mxm(C, None, None, PT, A, A)          # noqa: E731
    spmv = lambda: grb.mxv(w, None, None, PT, A, u)            # noqa: E731
    reduce_ = lambda: grb.reduce(w, None, None, MON, A)        # noqa: E731
    plain = {
        "spgemm": (spgemm, 7),
        "spgemm_er": (lambda: grb.mxm(C2, None, None, PT, A, E), 9),
        "spmv_push": (spmv, 40),
        "spmv_pull": (lambda: grb.mxv(w, mask, None, PT, A, u, grb.DESC_R), 40),
        "ewise": (lambda: grb.eWiseAdd(C2, None, None, PLUS, A, E), 20),
        "reduce": (reduce_, 40),
        "apply": (lambda: grb.apply(C2, None, None, AINV, A), 40),
        "extract": (lambda: grb.matrix_extract(X, None, None, A, I, J), 20),
        "assign": (lambda: grb.matrix_assign(T, None, None, X, I, J), 20),
        "transpose": (lambda: grb.transpose(C2, None, None, A), 40),
    }
    t = {k: med_s(fn, reps) for k, (fn, reps) in plain.items()}
    for k, v in t.items():
        m[f"kernels.{k}_ms"] = max(v - overhead, 0.0) * 1e3

    self_s, attrs = kernel_self_s(spgemm, "spgemm")
    m["kernels.spgemm_self_ms"] = self_s * 1e3
    m["kernels.spgemm_mflops_per_s"] = attrs["flops_realized"] / self_s / 1e6
    # operands read + result written, 8-byte index and value per stored
    # element plus the row pointers: computed from sizes, not measured
    stored = 2 * A.nvals() + C.nvals()
    m["kernels.bytes_moved_computed_mb"] = (stored * 16 + 3 * (n + 1) * 8) / 1e6
    m["kernels.spmv_self_ms"] = kernel_self_s(spmv, "spmv", 20)[0] * 1e3
    m["kernels.reduce_self_ms"] = kernel_self_s(reduce_, "reduce_rows", 20)[0] * 1e3

    # ---- operations: the write pipeline's tax, same operands ------------
    # The tax is measured under a complemented mask: it prunes nothing, so
    # the kernel does the plain call's work and the ratio is the write
    # pipeline alone.  mask_replace_ratio keeps the selective mask — there
    # push-down may win, and a ratio below 1 says so.
    def fresh(src):
        return src.dup()

    tax = {
        "write_tax_ratio.mxm": (lambda: grb.mxm(fresh(E), E, PLUS, PT, A, A, grb.DESC_SC), 7, "spgemm"),
        "write_tax_ratio.mxv": (lambda: grb.mxv(fresh(u), mask, PLUS, PT, A, u, grb.DESC_SC), 40, "spmv_push"),
        "write_tax_ratio.ewise": (lambda: grb.eWiseAdd(fresh(E), X0, PLUS, PLUS, A, E, grb.DESC_SC), 20, "ewise"),
        "accum_ratio.mxm": (lambda: grb.mxm(fresh(E), None, PLUS, PT, A, A), 7, "spgemm"),
        "mask_replace_ratio.mxm": (lambda: grb.mxm(C2, A, None, PT, A, A, grb.DESC_R), 7, "spgemm"),
    }
    for k, (fn, reps, base) in tax.items():
        m[f"operations.{k}"] = med_s(fn, reps) / t[base]

    # ---- the deferred sequence, run eagerly: base of nb_over_blocking ----
    seq = wk.DeferredChains(seed, wk.DEFAULTS)
    seq.build()
    steps = seq.make_steps()
    m["_deferred_blocking_ms"] = med_s(
        lambda: [fn() for _, _, fn in steps], 60, 5) * 1e3

    # ---- shard: the process backend against the thread backend ----------
    workers = parallel.shard_workers()
    if (os.cpu_count() or 1) >= workers:
        parallel.set_backend("processes")
        try:
            m["shard.processes_over_threads.mxm"] = med_s(spgemm, 5, 2) / t["spgemm"]
        finally:
            parallel.set_backend("threads")
            parallel.shutdown_pools()
    else:
        # never a ratio from an oversubscribed host
        m["shard.processes_over_threads.mxm"] = 0.0
        m["_skipped"] = {"shard.processes_over_threads.mxm":
                         f"host_cores {os.cpu_count()} < shard_workers {workers}"}

    # ---- containers / io / stream on R13 ---------------------------------
    R = wk.graph(STORE_SCALE, seed)
    N = R.nrows
    rows, cols, vals = R.extract_tuples()
    m["containers.build_ms"] = med_s(
        lambda: grb.Matrix.from_coo(FP, N, N, rows, cols, vals), 7) * 1e3
    m["containers.extract_tuples_ms"] = med_s(R.extract_tuples, 15) * 1e3
    v = wk.sparse_vector(rng, N, N // 8)
    wv = grb.vector_new(FP, N)
    vxm = lambda: grb.vxm(wv, None, None, PT, v, R)            # noqa: E731
    steady = med_s(vxm, 15)
    first = []
    for k in range(7):
        R.set_element(int(rng.integers(N)), int(rng.integers(N)), 1.5)
        t0 = time.perf_counter()
        vxm()
        first.append(time.perf_counter() - t0)
    # the first column-oriented read after an edit, minus the steady state
    m["containers.csc_rebuild_ms"] = max(statistics.median(first) - steady, 0.0) * 1e3

    blob = serialize(R)
    mb = len(blob) / 1e6
    m["io.serialize_mb_per_s"] = mb / med_s(lambda: serialize(R), 9)
    m["io.deserialize_mb_per_s"] = mb / med_s(lambda: deserialize(blob), 9)

    buf = EdgeBuffer(R)
    batch = 20

    def flush():
        buf.set_edges(rng.integers(N, size=batch), rng.integers(N, size=batch),
                      rng.uniform(0.5, 2.0, batch))
        _ = buf.flush().delta  # the delta is the flush's sequence point

    flush_s = med_s(flush, 15)
    m["stream.flush_ms"] = flush_s * 1e3
    m["stream.rebuild_us_per_edge"] = flush_s * 1e6 / batch
    grb.finalize()
    return m


def nonblocking(seed: int) -> dict:
    m: dict = {}
    seq = wk.DeferredChains(seed, wk.DEFAULTS)
    seq.setup()  # reference in blocking mode, then init(NONBLOCKING)
    steps = seq.steps(0)
    issue_us, drain_ms, plan_ms = [], [], []
    for _ in range(10):
        for _, _, fn in steps:
            fn()
    with obs.capture() as cap:
        for _ in range(60):
            t0 = time.perf_counter()
            for _, _, fn in steps[:-1]:
                fn()
            t1 = time.perf_counter()
            grb.wait()
            t2 = time.perf_counter()
            issue_us.append((t1 - t0) * 1e6 / (len(steps) - 1))
            drain_ms.append((t2 - t1) * 1e3)
    ops = {}
    for s in cap.spans:
        if s.kind == "op" and s.parent is not None:
            ops[s.parent] = ops.get(s.parent, 0.0) + s.seconds
    for s in cap.spans:
        if s.kind == "drain":
            # drain wall minus the op spans it ran: planning + scheduling
            plan_ms.append((s.seconds - ops.get(s.sid, 0.0)) * 1e3)
    m["execution.issue_us_per_op"] = statistics.median(issue_us)
    m["execution.drain_ms"] = statistics.median(drain_ms)
    m["execution.plan_overhead_ms"] = statistics.median(plan_ms)

    # ---- algorithms on R11, each its own median --------------------------
    A = wk.graph(KERNEL_SCALE, seed)
    P = rmat(KERNEL_SCALE, 8, seed=seed, domain=FP)
    rng = np.random.default_rng([seed, 8])
    src = int(rng.integers(A.nrows))
    batch = rng.choice(A.nrows, size=8, replace=False)
    levels: list = []
    runs = {
        "bc": (lambda: alg.bc_update(P, batch).extract_tuples(), 7),
        "bfs": (lambda: levels.append(alg.bfs_levels(P, src).extract_tuples()), 15),
        "sssp": (lambda: alg.sssp(A, src).extract_tuples(), 15),
        "pagerank": (lambda: alg.pagerank(A), 7),
        "tc": (lambda: alg.triangle_count(P), 15),
    }
    for k, (fn, reps) in runs.items():
        m[f"algorithms.{k}_ms"] = med_s(fn, reps, 1) * 1e3
    m["algorithms.bfs_depth"] = int(levels[-1][1].max())
    with obs.capture() as cap:
        alg.pagerank(A)
    # one vxm per power iteration
    m["algorithms.pagerank_iters"] = sum(
        1 for s in cap.spans if s.kind == "op" and s.label == "vxm")
    grb.finalize()
    return m


BATTERIES = {"blocking": blocking, "nonblocking": nonblocking}
