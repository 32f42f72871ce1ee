"""Per-thread sequences (paper section IV): "A multithreaded program may
have a distinct sequence per thread, but those sequences must not share
objects unless the shared objects are read-only"."""

import threading

import numpy as np
import pytest

import repro as grb
from repro.algebra import predefined
from repro.io import erdos_renyi
from repro.ops import binary


class TestPerThreadSequences:
    def test_threads_have_independent_queues(self):
        grb.init(grb.Mode.NONBLOCKING)
        A = grb.Matrix.from_dense(grb.INT64, [[1, 1], [1, 1]])
        results = {}

        def worker(name):
            C = grb.Matrix(grb.INT64, 2, 2)
            grb.mxm(C, None, None, predefined.PLUS_TIMES[grb.INT64], A, A)
            # this thread's queue holds exactly its own op
            results[name + "_queued"] = grb.queue_stats()["enqueued"]
            grb.wait()
            results[name] = C.to_dense(0)

        t = threading.Thread(target=worker, args=("t1",))
        t.start()
        t.join()
        # main thread's sequence is untouched by the worker's ops
        assert grb.queue_stats()["enqueued"] == 0
        assert results["t1_queued"] == 1
        assert (results["t1"] == A.to_dense(0) @ A.to_dense(0)).all()

    def test_concurrent_sequences_share_readonly_input(self):
        grb.init(grb.Mode.NONBLOCKING)
        A = erdos_renyi(200, 3000, seed=77, domain=grb.INT64)
        expect = A.to_dense(0) @ A.to_dense(0)
        outputs = [None] * 4
        errors = []

        def worker(k):
            try:
                C = grb.Matrix(grb.INT64, 200, 200)
                grb.mxm(C, None, None, predefined.PLUS_TIMES[grb.INT64], A, A)
                grb.ewise_add(C, None, None, binary.PLUS[grb.INT64], C, C)
                outputs[k] = C.to_dense(0)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for out in outputs:
            assert (out == 2 * expect).all()

    def test_error_in_one_thread_does_not_poison_another(self):
        grb.init(grb.Mode.NONBLOCKING)

        def boom(x, y):
            raise grb.info.OutOfMemory("thread-local failure")

        bad = grb.binary_op_new(boom, grb.INT64, grb.INT64, grb.INT64)
        A = grb.Matrix.from_dense(grb.INT64, [[1]])
        seen = {}

        def failing():
            C = grb.Matrix(grb.INT64, 1, 1)
            grb.ewise_mult(C, None, None, bad, A, A)
            try:
                grb.wait()
                seen["failing"] = "no error"
            except grb.info.OutOfMemory:
                seen["failing"] = "raised"

        t = threading.Thread(target=failing)
        t.start()
        t.join()
        assert seen["failing"] == "raised"
        # the main thread's sequence is clean: wait() raises nothing
        grb.wait()
        C = grb.Matrix(grb.INT64, 1, 1)
        grb.ewise_mult(C, None, None, binary.TIMES[grb.INT64], A, A)
        assert C.nvals() == 1

    def test_blocking_mode_thread_safety_of_kernels(self):
        # blocking mode: concurrent independent operations on shared
        # read-only inputs must not interfere
        A = erdos_renyi(150, 2000, seed=78, domain=grb.INT64)
        expect = A.to_dense(0).T
        outs = [None] * 3

        def worker(k):
            C = grb.Matrix(grb.INT64, 150, 150)
            grb.transpose(C, None, None, A)
            outs[k] = C.to_dense(0)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for out in outs:
            assert (out == expect).all()


class TestContextHandoff:
    """The thread-local activation stack: a Context object is the token
    that routes a thread's calls to it."""

    def test_activation_stack_is_thread_local(self):
        from repro import context

        ctx = context.Context(context.Mode.NONBLOCKING, name="mine")
        seen = {}

        def worker():
            # another thread's activation must not be visible here
            seen["mode"] = context.current_mode()
            seen["ctx"] = context.current_context()

        with context.activate(ctx):
            assert context.current_context() is ctx
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert seen["mode"] is grb.Mode.BLOCKING
        assert seen["ctx"] is not ctx

    def test_two_thread_interleaving_isolated_contexts(self):
        # two threads ping-pong operations on two different contexts; each
        # sequence keeps its own mode, queue, and results
        from repro import context

        c1 = context.Context(context.Mode.NONBLOCKING, name="s1")
        c2 = context.Context(context.Mode.NONBLOCKING, name="s2")
        A = grb.Matrix.from_dense(grb.INT64, [[2, 0], [0, 2]])
        steps: "list[str]" = []
        lock = threading.Lock()
        turn = threading.Semaphore(1), threading.Semaphore(0)
        out = {}

        def worker(idx, ctx):
            me, other = turn[idx], turn[1 - idx]
            for round_no in range(3):
                me.acquire()
                with context.activate(ctx):
                    C = grb.Matrix(grb.INT64, 2, 2)
                    grb.mxm(
                        C, None, None, predefined.PLUS_TIMES[grb.INT64], A, A
                    )
                    with lock:
                        steps.append(f"t{idx}r{round_no}")
                    grb.wait()
                    out[(idx, round_no)] = C.to_dense(0)
                other.release()

        ts = [threading.Thread(target=worker, args=(i, c))
              for i, c in enumerate((c1, c2))]
        for t in ts:
            t.start()
        for t in ts:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in ts)
        # strict alternation proves the interleaving actually happened
        assert steps == ["t0r0", "t1r0", "t0r1", "t1r1", "t0r2", "t1r2"]
        want = A.to_dense(0) @ A.to_dense(0)
        for v in out.values():
            assert (v == want).all()

    def test_init_rejected_under_session_activation(self):
        from repro import context

        with context.activate(context.Context(context.Mode.NONBLOCKING)):
            with pytest.raises(grb.InvalidValue):
                grb.init()
