"""Bit-identity of the sharded multi-process backend.

Mirrors the planner's randomized-sequence equivalence suite: the same
data-only programs run once blocking on the default backend (the oracle)
and again under the ``processes`` backend — 2-worker pool, threshold 0 so
every shippable kernel actually ships; the randomized sequences
nonblocking, the single-op cases in both execution modes.  Results must
match the oracle bit-for-bit, dtypes included: sharding is an execution
strategy, never a semantic (section III-B).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro as grb
from repro import context, parallel

from tests.conftest import random_matrix, random_vector
from tests.test_planner import _random_program, _run_program


def _assert_bitwise(want, got, where):
    for w_t, g_t in zip(want, got):
        for w_arr, g_arr in zip(w_t, g_t):
            assert np.array_equal(w_arr, g_arr), where
            assert w_arr.dtype == g_arr.dtype, where


def _run_processes(steps, seed: int):
    parallel.set_backend("processes")
    parallel.set_parallel_threshold(0)
    parallel.set_shard_workers(2)
    try:
        return _run_program(steps, seed, nonblocking=True)
    finally:
        parallel.set_backend("threads")
        parallel.set_parallel_threshold(parallel.config.DEFAULT_THRESHOLD)


@pytest.mark.parametrize("seed", range(20))
def test_sharded_sequences_bit_identical(seed):
    """20 randomized sequences (masks, accumulators, REPLACE, transposes):
    the processes backend must equal blocking mode bit-for-bit."""
    steps = _random_program(seed)
    want = _run_program(steps, seed, nonblocking=False)
    got = _run_processes(steps, seed)
    _assert_bitwise(want, got, f"seed {seed} diverged")


_MODES = (grb.Mode.BLOCKING, grb.Mode.NONBLOCKING)


def _serial_then_sharded(build):
    """Run *build* once on the default backend (the oracle), then under
    ``processes`` in each execution mode.  Returns ``(want, runs)`` where
    ``runs`` is one ``(mode, tuples, tasks shipped)`` per mode: blocking
    calls reach the pool through the same executor a drain does."""
    from repro.shard import pool_stats

    context._reset()
    want = build()
    runs = []
    for mode in _MODES:
        context._reset()
        grb.init(mode)
        parallel.set_backend("processes")
        parallel.set_parallel_threshold(0)
        parallel.set_shard_workers(2)
        before = pool_stats()["tasks_done"]
        try:
            got = build()
        finally:
            parallel.set_backend("threads")
            parallel.set_parallel_threshold(parallel.config.DEFAULT_THRESHOLD)
        runs.append((mode, got, pool_stats()["tasks_done"] - before))
    return want, runs


def _mxm_both_ways(rng, domain):
    """(default-backend tuples, [(mode, sharded tuples, tasks shipped)])
    for one mxm."""
    n = 48
    At = random_matrix(rng, n, n, 0.25, domain=domain).extract_tuples()
    Bt = random_matrix(rng, n, n, 0.25, domain=domain).extract_tuples()
    sr = grb.PLUS_TIMES[domain]

    def build():
        A = grb.Matrix.from_coo(domain, n, n, *At)
        B = grb.Matrix.from_coo(domain, n, n, *Bt)
        C = grb.Matrix(domain, n, n)
        grb.mxm(C, None, None, sr, A, B)
        grb.wait()
        return [C.extract_tuples()]

    return _serial_then_sharded(build)


def test_int_mxm_stripes_bit_identical(rng):
    """Integer SpGEMM ships as one row stripe per worker and stays exact,
    in blocking and nonblocking mode alike."""
    want, runs = _mxm_both_ways(rng, grb.INT64)
    for mode, got, shipped in runs:
        assert shipped == 2, mode
        _assert_bitwise(want, got, mode)


def test_float_mxm_stays_stripes_and_bitwise(rng):
    """FP64 SpGEMM matches blocking bitwise via row stripes: no float
    add happens at merge time, so associativity never comes into it."""
    want, runs = _mxm_both_ways(rng, grb.FP64)
    for mode, got, shipped in runs:
        assert shipped == 2, mode
        _assert_bitwise(want, got, mode)


def test_mxv_vxm_reduce_bit_identical(rng):
    """The two non-mxm shippable kinds, masked and accumulated, beside a
    row reduce, which never ships and must match all the same."""
    n = 40
    At = random_matrix(rng, n, n, 0.3, domain=grb.FP64).extract_tuples()
    ut = random_vector(rng, n, 0.5, domain=grb.FP64).extract_tuples()
    mt = random_vector(rng, n, 0.5, domain=grb.FP64).extract_tuples()

    def build():
        A = grb.Matrix.from_coo(grb.FP64, n, n, *At)
        u = grb.Vector.from_coo(grb.FP64, n, *ut)
        m = grb.Vector.from_coo(grb.FP64, n, *mt)
        sr = grb.PLUS_TIMES[grb.FP64]
        w = grb.Vector(grb.FP64, n)
        x = grb.Vector(grb.FP64, n)
        r = grb.Vector(grb.FP64, n)
        grb.mxv(w, m, None, sr, A, u, grb.DESC_SC)
        grb.vxm(x, None, grb.PLUS[grb.FP64], sr, u, A, grb.DESC_T1)
        grb.reduce(r, None, None, grb.PLUS_MONOID[grb.FP64], A)
        grb.wait()
        return [o.extract_tuples() for o in (w, x, r)]

    want, runs = _serial_then_sharded(build)
    for mode, got, shipped in runs:
        assert shipped == 4, mode  # mxv and vxm, one stripe per worker each
        _assert_bitwise(want, got, mode)


@pytest.mark.parametrize("nnz_u,shipped_tasks", [(1, 0), (40, 2)],
                         ids=["walkable", "dense_vector"])
def test_mxv_gate_reads_the_kernels_direction(rng, nnz_u, shipped_tasks):
    """With A's transpose view cached, a one-entry ``mxv`` is a column walk
    in process, so the gate ships nothing even at threshold 0; a dense
    vector still ships one stripe per worker.  Both stay bit-identical."""
    n = 40
    At = random_matrix(rng, n, n, 0.3, domain=grb.FP64).extract_tuples()
    u_idx = np.sort(rng.choice(n, size=nnz_u, replace=False))
    u_vals = rng.uniform(-1.0, 1.0, nnz_u)

    def build():
        A = grb.Matrix.from_coo(grb.FP64, n, n, *At)
        A.nvals()  # complete the build before asking for a view
        A.csc()
        u = grb.Vector.from_coo(grb.FP64, n, u_idx, u_vals)
        w = grb.Vector(grb.FP64, n)
        grb.mxv(w, None, None, grb.PLUS_TIMES[grb.FP64], A, u)
        grb.wait()
        return [w.extract_tuples()]

    want, runs = _serial_then_sharded(build)
    for mode, got, shipped in runs:
        assert shipped == shipped_tasks, mode
        _assert_bitwise(want, got, mode)
