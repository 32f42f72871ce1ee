"""Bit-identity of the sharded multi-process backend.

Mirrors the planner's randomized-sequence equivalence suite: the same
data-only programs run once blocking (the oracle) and once nonblocking
under the ``processes`` backend — 2-worker pool, threshold 0 so every
shippable kernel actually ships.  Results must match the oracle
bit-for-bit, dtypes included: sharding is an execution strategy, never
a semantic (section III-B).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro as grb
from repro import context, parallel

from tests.conftest import random_matrix, random_vector
from tests.test_planner import _random_program, _run_program


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
    for w_t, g_t in zip(want, got):
        for w_arr, g_arr in zip(w_t, g_t):
            assert np.array_equal(w_arr, g_arr), f"seed {seed} diverged"
            assert w_arr.dtype == g_arr.dtype


def _mxm_both_ways(rng, domain):
    """(blocking tuples, sharded tuples, tasks shipped) for one mxm."""
    from repro.shard import pool_stats

    n = 48
    At = random_matrix(rng, n, n, 0.25, domain=domain).extract_tuples()
    Bt = random_matrix(rng, n, n, 0.25, domain=domain).extract_tuples()
    sr = grb.PLUS_TIMES[domain]

    def run(sharded: bool):
        context._reset()
        if sharded:
            grb.init(grb.Mode.NONBLOCKING)
            parallel.set_backend("processes")
            parallel.set_parallel_threshold(0)
            parallel.set_shard_workers(2)
        A = grb.Matrix.from_coo(domain, n, n, *At)
        B = grb.Matrix.from_coo(domain, n, n, *Bt)
        C = grb.Matrix(domain, n, n)
        grb.mxm(C, None, None, sr, A, B)
        if sharded:
            grb.wait()
        return C.extract_tuples()

    want = run(sharded=False)
    before = pool_stats()["tasks_done"]
    try:
        got = run(sharded=True)
    finally:
        parallel.set_backend("threads")
        parallel.set_parallel_threshold(parallel.config.DEFAULT_THRESHOLD)
    shipped = pool_stats()["tasks_done"] - before
    return want, got, shipped


def test_int_mxm_stripes_bit_identical(rng):
    """Integer SpGEMM ships as one row stripe per worker and stays exact."""
    want, got, shipped = _mxm_both_ways(rng, grb.INT64)
    assert shipped == 2
    for w_arr, g_arr in zip(want, got):
        assert np.array_equal(w_arr, g_arr)
        assert w_arr.dtype == g_arr.dtype


def test_float_mxm_stays_stripes_and_bitwise(rng):
    """FP64 SpGEMM matches blocking bitwise via row stripes: no float
    add happens at merge time, so associativity never comes into it."""
    want, got, shipped = _mxm_both_ways(rng, grb.FP64)
    assert shipped == 2
    for w_arr, g_arr in zip(want, got):
        assert np.array_equal(w_arr, g_arr)
        assert w_arr.dtype == g_arr.dtype


def test_mxv_vxm_reduce_bit_identical(rng):
    """The three non-mxm shippable kinds, masked and accumulated."""
    n = 40
    At = random_matrix(rng, n, n, 0.3, domain=grb.FP64).extract_tuples()
    ut = random_vector(rng, n, 0.5, domain=grb.FP64).extract_tuples()
    mt = random_vector(rng, n, 0.5, domain=grb.FP64).extract_tuples()

    def run(sharded: bool):
        context._reset()
        if sharded:
            grb.init(grb.Mode.NONBLOCKING)
            parallel.set_backend("processes")
            parallel.set_parallel_threshold(0)
            parallel.set_shard_workers(2)
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
        if sharded:
            grb.wait()
        return [o.extract_tuples() for o in (w, x, r)]

    want = run(sharded=False)
    try:
        got = run(sharded=True)
    finally:
        parallel.set_backend("threads")
        parallel.set_parallel_threshold(parallel.config.DEFAULT_THRESHOLD)
    for w_t, g_t in zip(want, got):
        for w_arr, g_arr in zip(w_t, g_t):
            assert np.array_equal(w_arr, g_arr)
            assert w_arr.dtype == g_arr.dtype
