"""Behavior of the processes backend around the kernels: gating, fallback,
crash recovery, and the service integration knob.

Correctness of shipped kernels lives in test_shard_identity; this module
covers the *decisions* — what ships, what stays in the parent, and what
happens when the pool dies under an op.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

import repro as grb
from repro import context, parallel
from repro.info import Panic
from repro.shard import pool_stats

from tests.conftest import random_matrix


def _enable_processes(threshold: int = 0, mode=grb.Mode.NONBLOCKING) -> None:
    grb.init(mode)
    parallel.set_backend("processes")
    parallel.set_parallel_threshold(threshold)
    parallel.set_shard_workers(2)


def _oracle_mxm(At, Bt, n, domain=grb.INT64):
    context._reset()
    A = grb.Matrix.from_coo(domain, n, n, *At)
    B = grb.Matrix.from_coo(domain, n, n, *Bt)
    C = grb.Matrix(domain, n, n)
    grb.mxm(C, None, None, grb.PLUS_TIMES[domain], A, B)
    return C.extract_tuples()


def test_subthreshold_work_stays_local(rng):
    """Below the parallel threshold nothing ships — IPC would dominate —
    but the drain still completes with identical results."""
    n = 24
    At = random_matrix(rng, n, n, 0.3).extract_tuples()
    Bt = random_matrix(rng, n, n, 0.3).extract_tuples()
    want = _oracle_mxm(At, Bt, n)

    context._reset()
    _enable_processes(threshold=10**9)
    before = pool_stats()["tasks_done"]
    A = grb.Matrix.from_coo(grb.INT64, n, n, *At)
    B = grb.Matrix.from_coo(grb.INT64, n, n, *Bt)
    C = grb.Matrix(grb.INT64, n, n)
    grb.mxm(C, None, None, grb.PLUS_TIMES[grb.INT64], A, B)
    grb.wait()
    assert pool_stats()["tasks_done"] == before
    for w_arr, g_arr in zip(want, C.extract_tuples()):
        assert np.array_equal(w_arr, g_arr)


def test_non_registry_reducer_stays_local(rng):
    """reduce with a plain binary op builds an ad-hoc reducer shim the
    worker could never resolve by name; the gate must keep it local."""
    n = 24
    At = random_matrix(rng, n, n, 0.3).extract_tuples()

    def run(sharded: bool):
        context._reset()
        if sharded:
            _enable_processes()
        A = grb.Matrix.from_coo(grb.INT64, n, n, *At)
        w = grb.Vector(grb.INT64, n)
        grb.reduce(w, None, None, grb.MAX[grb.INT64], A)
        if sharded:
            grb.wait()
        return w.extract_tuples()

    want = run(sharded=False)
    before = pool_stats()["tasks_done"]
    got = run(sharded=True)
    assert pool_stats()["tasks_done"] == before
    for w_arr, g_arr in zip(want, got):
        assert np.array_equal(w_arr, g_arr)


def test_mixed_level_ships_and_runs_local_siblings(rng):
    """One level holding a shippable mxm and an unshippable ewise_add:
    the mxm goes to the pool, the ewise runs in the parent, both land."""
    n = 32
    At = random_matrix(rng, n, n, 0.3).extract_tuples()
    Bt = random_matrix(rng, n, n, 0.3).extract_tuples()

    def run(sharded: bool):
        context._reset()
        if sharded:
            _enable_processes()
        A = grb.Matrix.from_coo(grb.INT64, n, n, *At)
        B = grb.Matrix.from_coo(grb.INT64, n, n, *Bt)
        C = grb.Matrix(grb.INT64, n, n)
        E = grb.Matrix(grb.INT64, n, n)
        grb.mxm(C, None, None, grb.PLUS_TIMES[grb.INT64], A, B)
        grb.ewise_add(E, None, None, grb.PLUS[grb.INT64], A, B)
        if sharded:
            grb.wait()
        return C.extract_tuples(), E.extract_tuples()

    want = run(sharded=False)
    before = pool_stats()["tasks_done"]
    got = run(sharded=True)
    assert pool_stats()["tasks_done"] > before
    for w_t, g_t in zip(want, got):
        for w_arr, g_arr in zip(w_t, g_t):
            assert np.array_equal(w_arr, g_arr)


def test_worker_crash_panics_then_pool_respawns(rng):
    """A SIGKILLed worker fails the op that hits it with Panic — at the
    next wait() in nonblocking mode, out of the call itself in blocking
    mode; the next op gets a fresh pool and completes normally."""
    from repro.shard.pool import get_pool

    n = 32
    At = random_matrix(rng, n, n, 0.3).extract_tuples()
    Bt = random_matrix(rng, n, n, 0.3).extract_tuples()
    want = _oracle_mxm(At, Bt, n)

    for mode in (grb.Mode.NONBLOCKING, grb.Mode.BLOCKING):
        context._reset()
        _enable_processes(mode=mode)
        A = grb.Matrix.from_coo(grb.INT64, n, n, *At)
        B = grb.Matrix.from_coo(grb.INT64, n, n, *Bt)

        def mxm_into_fresh():
            out = grb.Matrix(grb.INT64, n, n)
            grb.mxm(out, None, None, grb.PLUS_TIMES[grb.INT64], A, B)
            grb.wait()
            return out

        mxm_into_fresh()

        old = get_pool()
        os.kill(old.pids[0], signal.SIGKILL)
        time.sleep(0.2)
        with pytest.raises(Panic):
            mxm_into_fresh()
        assert old.dead, mode

        # the failed op's output is lost; a fresh output on a fresh pool works
        E = mxm_into_fresh()
        assert get_pool() is not old, mode
        for w_arr, g_arr in zip(want, E.extract_tuples()):
            assert np.array_equal(w_arr, g_arr), mode


def test_service_runs_with_processes_backend():
    """ServiceConfig(backend=..., shard_workers=...) reaches the parallel
    knobs and a small mixed workload completes without errors."""
    from repro.service.loadgen import build_streams, run_direct

    streams = build_streams(3, 2, 20)
    run = run_direct(streams, seed=3, backend="processes", shard_workers=2)
    assert run["errors"] == []
    assert parallel.get_backend() == "processes"
    total = sum(len(s) for s in run["results"])
    assert total == sum(len(s) for s in streams)
