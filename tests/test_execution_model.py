"""Execution model (paper section IV) and error timing (section V)."""

import numpy as np
import pytest

import repro as grb
from repro.algebra import predefined
from repro.ops import binary


def _chain(n=4):
    """A small op sequence with intermediates; returns final dense result."""
    A = grb.Matrix.from_coo(
        grb.INT64, n, n, np.arange(n), (np.arange(n) + 1) % n, np.arange(2, n + 2)
    )
    T1 = grb.Matrix(grb.INT64, n, n)
    T2 = grb.Matrix(grb.INT64, n, n)
    grb.mxm(T1, None, None, predefined.PLUS_TIMES[grb.INT64], A, A)
    grb.ewise_add(T2, None, None, binary.PLUS[grb.INT64], T1, A)
    grb.apply(T2, None, None, grb.ops.unary.AINV[grb.INT64], T2)
    return T2.to_dense(0)


class TestModes:
    def test_default_mode_is_blocking(self):
        assert grb.current_mode() is grb.Mode.BLOCKING

    def test_init_sets_mode(self):
        grb.init(grb.Mode.NONBLOCKING)
        assert grb.current_mode() is grb.Mode.NONBLOCKING

    def test_init_twice_is_invalid(self):
        grb.init()
        with pytest.raises(grb.InvalidValue):
            grb.init()

    def test_init_after_finalize_is_invalid(self):
        grb.init()
        grb.finalize()
        with pytest.raises(grb.InvalidValue):
            grb.init()

    def test_finalize_twice_is_invalid(self):
        grb.init()
        grb.finalize()
        with pytest.raises(grb.InvalidValue):
            grb.finalize()

    def test_methods_after_finalize_rejected(self):
        grb.init(grb.Mode.NONBLOCKING)
        A = grb.Matrix(grb.INT64, 2, 2)
        grb.finalize()
        with pytest.raises(grb.InvalidValue):
            grb.mxm(A, None, None, predefined.PLUS_TIMES[grb.INT64], A, A)


class TestEquivalence:
    def test_nonblocking_equals_blocking(self):
        blocking = _chain()
        from repro import context

        context._reset()
        grb.init(grb.Mode.NONBLOCKING)
        nonblocking = _chain()
        assert (blocking == nonblocking).all()

    @pytest.mark.parametrize("op", ["mxm", "extract", "assign"])
    @pytest.mark.parametrize("change", ["free_desc", "set_desc", "indices"])
    def test_arguments_are_read_at_the_call(self, op, change):
        """A deferred call keeps its arguments as they were at the call:
        freeing or changing the descriptor, or overwriting an index list,
        after the call and before wait() changes nothing (section IV)."""
        from repro import context

        def run():
            FP = grb.FP64
            A = grb.Matrix.from_coo(
                FP, 3, 3, [0, 0, 1, 1, 2, 2], [0, 1, 1, 2, 0, 2],
                [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            )
            desc = grb.Descriptor().set(grb.INP0, grb.TRAN)
            rows = np.array([0, 2], dtype=np.int64)
            cols = np.array([1, 2], dtype=np.int64)
            if op == "mxm":
                # the index list reaches mxm through its extracted operand
                M = grb.Matrix.from_coo(grb.BOOL, 2, 3, [0, 1], [0, 2], [1, 1])
                T = grb.Matrix(FP, 3, 2)
                grb.matrix_extract(T, None, None, A, grb.ALL, rows)
                C = grb.Matrix(FP, 2, 3)
                grb.mxm(C, M, None, predefined.PLUS_TIMES[FP], T, A, desc)
            elif op == "extract":
                C = grb.Matrix(FP, 2, 2)
                M = grb.Matrix.from_coo(grb.BOOL, 2, 2, [0, 1], [0, 1], [1, 1])
                grb.matrix_extract(C, M, None, A, rows, cols, desc)
            else:
                C = grb.Matrix.from_coo(FP, 3, 3, [1], [1], [9.0])
                S = grb.Matrix.from_coo(FP, 2, 2, [0, 1], [1, 0], [7.0, 8.0])
                M = grb.Matrix.from_coo(grb.BOOL, 3, 3, [0, 2], [1, 2], [1, 1])
                grb.matrix_assign(C, M, None, S, rows, cols, desc)
            if change == "free_desc":
                desc.free()
            elif change == "set_desc":
                desc.set(grb.MASK, grb.SCMP)
            else:
                rows[:] = [1, 0]
            grb.wait()
            return C.extract_tuples()

        blocking = run()
        context._reset()
        grb.init(grb.Mode.NONBLOCKING)
        nonblocking = run()
        for want, got in zip(blocking, nonblocking):
            assert np.array_equal(want, got)

    def test_wait_after_each_op_equals_blocking(self):
        # "a sequence in nonblocking mode where every operation is followed
        # by GrB_wait() is equivalent to ... blocking mode" (section IV)
        grb.init(grb.Mode.NONBLOCKING)
        A = grb.Matrix.from_dense(grb.INT64, [[1, 2], [3, 4]])
        C = grb.Matrix(grb.INT64, 2, 2)
        grb.mxm(C, None, None, predefined.PLUS_TIMES[grb.INT64], A, A)
        grb.wait()
        grb.ewise_add(C, None, None, binary.PLUS[grb.INT64], C, A)
        grb.wait()
        assert (C.to_dense(0) == A.to_dense(0) @ A.to_dense(0) + A.to_dense(0)).all()


class TestDeferral:
    def test_ops_defer_until_wait(self):
        grb.init(grb.Mode.NONBLOCKING)
        A = grb.Matrix.from_dense(grb.INT64, [[1, 1], [1, 1]])
        C = grb.Matrix(grb.INT64, 2, 2)
        grb.mxm(C, None, None, predefined.PLUS_TIMES[grb.INT64], A, A)
        stats = grb.queue_stats()
        assert stats["enqueued"] == 1 and stats["executed"] == 0
        grb.wait()
        assert grb.queue_stats()["executed"] == 1

    def test_nvals_forces_completion(self):
        # nvals outputs a non-opaque value: it may not defer (section IV);
        # Fig. 3 line 44 relies on this inside the BFS loop
        grb.init(grb.Mode.NONBLOCKING)
        A = grb.Matrix.from_dense(grb.INT64, [[1, 1], [1, 1]])
        C = grb.Matrix(grb.INT64, 2, 2)
        grb.mxm(C, None, None, predefined.PLUS_TIMES[grb.INT64], A, A)
        assert C.nvals() == 4
        assert grb.queue_stats()["executed"] == 1

    def test_extract_tuples_forces_completion(self):
        grb.init(grb.Mode.NONBLOCKING)
        A = grb.Matrix.from_dense(grb.INT64, [[2, 0], [0, 2]])
        C = grb.Matrix(grb.INT64, 2, 2)
        grb.mxm(C, None, None, predefined.PLUS_TIMES[grb.INT64], A, A)
        _, _, vals = C.extract_tuples()
        assert vals.tolist() == [4, 4]

    def test_reduce_scalar_forces_completion(self):
        grb.init(grb.Mode.NONBLOCKING)
        A = grb.Matrix.from_dense(grb.INT64, [[1, 1], [1, 1]])
        C = grb.Matrix(grb.INT64, 2, 2)
        grb.mxm(C, None, None, predefined.PLUS_TIMES[grb.INT64], A, A)
        assert grb.reduce_to_scalar(grb.monoid("GrB_PLUS_MONOID_INT64"), C) == 8

    def test_program_order_preserved_with_mutation(self):
        # a deferred op followed by set_element must apply in order
        grb.init(grb.Mode.NONBLOCKING)
        A = grb.Matrix.from_dense(grb.INT64, [[1, 0], [0, 1]])
        C = grb.Matrix(grb.INT64, 2, 2)
        grb.mxm(C, None, None, predefined.PLUS_TIMES[grb.INT64], A, A)
        C.set_element(0, 0, 99)  # non-deferrable: drains queue first
        assert C.extract_element(0, 0) == 99

    def test_reading_unrelated_object_does_not_drain(self):
        grb.init(grb.Mode.NONBLOCKING)
        A = grb.Matrix.from_dense(grb.INT64, [[1, 1], [1, 1]])
        C = grb.Matrix(grb.INT64, 2, 2)
        other = grb.Matrix.from_dense(grb.INT64, [[5]])
        grb.mxm(C, None, None, predefined.PLUS_TIMES[grb.INT64], A, A)
        assert other.nvals() == 1
        assert grb.queue_stats()["executed"] == 0  # C's op still queued


class TestDeadOpElimination:
    def test_pure_overwrite_elides_earlier_op(self):
        grb.init(grb.Mode.NONBLOCKING)
        A = grb.Matrix.from_dense(grb.INT64, [[1, 1], [1, 1]])
        C = grb.Matrix(grb.INT64, 2, 2)
        grb.mxm(C, None, None, predefined.PLUS_TIMES[grb.INT64], A, A)  # dead
        grb.ewise_add(C, None, None, binary.PLUS[grb.INT64], A, A)
        grb.wait()
        s = grb.queue_stats()
        assert s["elided"] == 1 and s["executed"] == 1
        assert (C.to_dense(0) == 2 * A.to_dense(0)).all()

    def test_read_in_between_keeps_op(self):
        grb.init(grb.Mode.NONBLOCKING)
        A = grb.Matrix.from_dense(grb.INT64, [[1, 1], [1, 1]])
        C = grb.Matrix(grb.INT64, 2, 2)
        D = grb.Matrix(grb.INT64, 2, 2)
        grb.mxm(C, None, None, predefined.PLUS_TIMES[grb.INT64], A, A)
        grb.apply(D, None, None, grb.ops.unary.IDENTITY[grb.INT64], C)  # reads C
        grb.ewise_add(C, None, None, binary.PLUS[grb.INT64], A, A)
        grb.wait()
        assert grb.queue_stats()["elided"] == 0
        assert (D.to_dense(0) == A.to_dense(0) @ A.to_dense(0)).all()

    def test_accum_op_is_not_pure_overwrite(self):
        grb.init(grb.Mode.NONBLOCKING)
        A = grb.Matrix.from_dense(grb.INT64, [[1, 1], [1, 1]])
        C = grb.Matrix(grb.INT64, 2, 2)
        grb.mxm(C, None, None, predefined.PLUS_TIMES[grb.INT64], A, A)
        grb.ewise_add(C, None, binary.PLUS[grb.INT64], binary.PLUS[grb.INT64], A, A)
        grb.wait()
        assert grb.queue_stats()["elided"] == 0
        assert (C.to_dense(0) == A.to_dense(0) @ A.to_dense(0) + 2 * A.to_dense(0)).all()


class TestErrorTiming:
    def test_api_errors_raised_immediately_in_nonblocking(self):
        grb.init(grb.Mode.NONBLOCKING)
        A = grb.Matrix(grb.INT64, 2, 3)
        C = grb.Matrix(grb.INT64, 2, 2)
        with pytest.raises(grb.DimensionMismatch):
            grb.mxm(C, None, None, predefined.PLUS_TIMES[grb.INT64], A, A)
        assert grb.queue_stats()["enqueued"] == 0

    def test_execution_error_surfaces_at_wait(self):
        grb.init(grb.Mode.NONBLOCKING)

        def boom(x, y):
            raise grb.info.OutOfMemory("simulated allocation failure")

        bad = grb.binary_op_new(boom, grb.INT64, grb.INT64, grb.INT64)
        A = grb.Matrix.from_dense(grb.INT64, [[1, 1], [1, 1]])
        C = grb.Matrix(grb.INT64, 2, 2)
        grb.ewise_mult(C, None, None, bad, A, A)  # no error yet
        with pytest.raises(grb.info.OutOfMemory):
            grb.wait()
        assert "OUT_OF_MEMORY" in grb.error()

    def test_execution_error_poisons_output(self):
        grb.init(grb.Mode.NONBLOCKING)

        def boom(x, y):
            raise grb.info.OutOfMemory("x")

        bad = grb.binary_op_new(boom, grb.INT64, grb.INT64, grb.INT64)
        A = grb.Matrix.from_dense(grb.INT64, [[1]])
        C = grb.Matrix(grb.INT64, 1, 1)
        grb.ewise_mult(C, None, None, bad, A, A)
        with pytest.raises(grb.GraphBLASError):
            grb.wait()
        with pytest.raises(grb.InvalidObject):
            C.nvals()
        # and using the invalid object as an input is an API-time error
        D = grb.Matrix(grb.INT64, 1, 1)
        with pytest.raises(grb.InvalidObject):
            grb.apply(D, None, None, grb.ops.unary.IDENTITY[grb.INT64], C)

    def test_downstream_ops_poisoned_too(self):
        grb.init(grb.Mode.NONBLOCKING)

        def boom(x, y):
            raise grb.info.OutOfMemory("x")

        bad = grb.binary_op_new(boom, grb.INT64, grb.INT64, grb.INT64)
        A = grb.Matrix.from_dense(grb.INT64, [[1]])
        C = grb.Matrix(grb.INT64, 1, 1)
        D = grb.Matrix(grb.INT64, 1, 1)
        grb.ewise_mult(C, None, None, bad, A, A)
        grb.apply(D, None, None, grb.ops.unary.IDENTITY[grb.INT64], C)
        with pytest.raises(grb.GraphBLASError):
            grb.wait()
        with pytest.raises(grb.InvalidObject):
            D.nvals()

    @pytest.mark.parametrize(
        "kind, edit",
        [
            ("matrix", lambda C: C.resize(1, 1)),
            ("matrix", lambda C: C.set_element(0, 1, 7)),  # insert
            ("matrix", lambda C: C.set_element(0, 0, 7)),  # overwrite in place
            ("matrix", lambda C: C.remove_element(0, 0)),
            ("vector", lambda w: w.resize(1)),
            ("vector", lambda w: w.set_element(1, 7)),
            ("vector", lambda w: w.set_element(0, 7)),
            ("vector", lambda w: w.remove_element(0)),
        ],
        ids=["matrix-resize", "matrix-set-insert", "matrix-set-overwrite",
             "matrix-remove", "vector-resize", "vector-set-insert",
             "vector-set-overwrite", "vector-remove"],
    )
    def test_edit_after_failed_writer_leaves_output_invalid(self, kind, edit):
        # an in-place edit of an object whose queued producer failed must not
        # make it valid again: its value could not be computed (Fig. 2c)
        grb.init(grb.Mode.NONBLOCKING)

        def boom(x, y):
            raise grb.info.OutOfMemory("x")

        bad = grb.binary_op_new(boom, grb.INT64, grb.INT64, grb.INT64)
        if kind == "matrix":
            A = grb.Matrix.from_dense(grb.INT64, [[1, 1], [1, 1]])
            C = grb.Matrix.from_dense(grb.INT64, [[5, 0], [0, 5]])
        else:
            A = grb.Vector.from_dense(grb.INT64, [1, 1])
            C = grb.Vector.from_dense(grb.INT64, [5, 0])
        grb.ewise_mult(C, None, None, bad, A, A)
        with pytest.raises(grb.info.OutOfMemory):
            edit(C)  # resize raises here, as any completion of C does
            grb.wait()  # an element edit records the error for the next wait
        with pytest.raises(grb.InvalidObject):
            C.nvals()
        grb.wait()  # the error surfaced exactly once

    def test_error_in_blocking_mode_raises_at_call(self):
        def boom(x, y):
            raise grb.info.OutOfMemory("x")

        bad = grb.binary_op_new(boom, grb.INT64, grb.INT64, grb.INT64)
        A = grb.Matrix.from_dense(grb.INT64, [[1]])
        C = grb.Matrix(grb.INT64, 1, 1)
        with pytest.raises(grb.info.OutOfMemory):
            grb.ewise_mult(C, None, None, bad, A, A)
            grb.wait()  # blocking: already raised above

    def test_foreign_exception_becomes_panic(self):
        grb.init(grb.Mode.NONBLOCKING)

        def boom(x, y):
            raise RuntimeError("not a GraphBLAS error")

        bad = grb.binary_op_new(boom, grb.INT64, grb.INT64, grb.INT64)
        A = grb.Matrix.from_dense(grb.INT64, [[1]])
        C = grb.Matrix(grb.INT64, 1, 1)
        grb.ewise_mult(C, None, None, bad, A, A)
        with pytest.raises(grb.info.Panic):
            grb.wait()


class TestQueueStats:
    def test_counts(self):
        grb.init(grb.Mode.NONBLOCKING)
        A = grb.Matrix.from_dense(grb.INT64, [[1]])
        C = grb.Matrix(grb.INT64, 1, 1)
        for _ in range(3):
            grb.apply(C, None, None, grb.ops.unary.IDENTITY[grb.INT64], A)
        grb.wait()
        s = grb.queue_stats()
        assert s["enqueued"] == 3
        assert s["executed"] + s["elided"] == 3
        assert s["elided"] == 2  # first two results never observed
        assert s["drains"] == 1
