"""Convenience helpers (equality, norms, symmetry) and the op-span capture."""

import numpy as np
import pytest

import repro as grb
from repro import obs
from repro.utils import (
    is_symmetric,
    matrices_equal,
    norm_max,
    norm_sum,
    pattern_equal,
    vectors_equal,
)

from tests.conftest import op_count, random_matrix, random_vector


class TestEquality:
    def test_equal_matrices(self, rng):
        A = random_matrix(rng, 5, 5, 0.5)
        assert matrices_equal(A, A.dup())

    def test_value_difference_detected(self, rng):
        A = random_matrix(rng, 5, 5, 0.5)
        B = A.dup()
        i, j, v = next(iter(B))
        B.set_element(i, j, int(v) + 1)
        assert not matrices_equal(A, B)

    def test_pattern_difference_detected(self, rng):
        A = random_matrix(rng, 5, 5, 0.3)
        B = A.dup()
        B.set_element(0, 0, 1) if (0, 0) not in {
            (i, j) for i, j, _ in A
        } else B.remove_element(0, 0)
        assert not matrices_equal(A, B)

    def test_explicit_zero_vs_absent(self):
        # "stored zero" and "undefined" are different contents
        A = grb.Matrix.from_coo(grb.INT64, 2, 2, [0], [0], [0])
        B = grb.Matrix(grb.INT64, 2, 2)
        assert not matrices_equal(A, B)
        assert not pattern_equal(A, B)

    def test_shape_mismatch(self):
        assert not matrices_equal(
            grb.Matrix(grb.INT64, 2, 2), grb.Matrix(grb.INT64, 2, 3)
        )

    def test_type_strictness_toggle(self):
        A = grb.Matrix.from_coo(grb.INT32, 1, 1, [0], [0], [5])
        B = grb.Matrix.from_coo(grb.INT64, 1, 1, [0], [0], [5])
        assert not matrices_equal(A, B)
        assert matrices_equal(A, B, check_type=False)

    def test_vectors(self, rng):
        u = random_vector(rng, 8, 0.5)
        assert vectors_equal(u, u.dup())
        v = u.dup()
        v.set_element(0, 99)
        assert not vectors_equal(u, v)

    def test_udt_equality(self):
        T = grb.powerset_type()
        u = grb.Vector(T, 2)
        u.build([0], [frozenset({1})])
        v = grb.Vector(T, 2)
        v.build([0], [frozenset({1})])
        assert vectors_equal(u, v)
        w = grb.Vector(T, 2)
        w.build([0], [frozenset({2})])
        assert not vectors_equal(u, w)


class TestNormsAndSymmetry:
    def test_norms(self):
        A = grb.Matrix.from_coo(grb.FP64, 2, 2, [0, 1], [1, 0], [-3.0, 4.0])
        assert norm_max(A) == 4.0
        assert norm_sum(A) == 7.0

    def test_empty_norms(self):
        A = grb.Matrix(grb.FP64, 2, 2)
        assert norm_max(A) == 0.0
        assert norm_sum(A) == 0.0

    def test_vector_norms(self):
        v = grb.Vector.from_coo(grb.FP64, 3, [0, 2], [-1.5, 2.0])
        assert norm_max(v) == 2.0
        assert norm_sum(v) == 3.5

    def test_symmetry(self):
        S = grb.Matrix.from_dense(grb.INT64, [[0, 2], [2, 0]])
        assert is_symmetric(S)
        N = grb.Matrix.from_dense(grb.INT64, [[0, 2], [3, 0]])
        assert not is_symmetric(N)
        assert is_symmetric(N, values=False)  # pattern is symmetric

    def test_nonsquare_never_symmetric(self):
        assert not is_symmetric(grb.Matrix(grb.INT64, 2, 3))


class TestCapture:
    def test_records_blocking_ops(self, rng):
        A = random_matrix(rng, 6, 6, 0.5)
        C = grb.Matrix(grb.INT64, 6, 6)
        with obs.capture() as cap:
            grb.mxm(C, None, None, grb.PLUS_TIMES[grb.INT64], A, A)
            grb.transpose(C, None, None, C)
        assert op_count(cap, "mxm") == 1
        assert op_count(cap, "transpose") == 1
        assert op_count(cap) == 2
        assert all(not sp.deferred for sp in cap.spans_of("op"))
        assert sum(sp.seconds for sp in cap.spans_of("op")) > 0

    def test_records_deferred_ops_and_elisions(self, rng):
        grb.init(grb.Mode.NONBLOCKING)
        A = random_matrix(rng, 6, 6, 0.5)
        C = grb.Matrix(grb.INT64, 6, 6)
        with obs.capture() as cap:
            grb.mxm(C, None, None, grb.PLUS_TIMES[grb.INT64], A, A)  # dead
            grb.ewise_add(C, None, None, grb.PLUS[grb.INT64], A, A)
            grb.wait()
        assert op_count(cap, "eWiseAdd") == 1
        assert op_count(cap, "mxm") == 0  # elided: its thunk never ran
        assert cap.queue_delta()["elided"] == 1
        assert cap.queue_delta()["drains"] == 1
        assert all(sp.deferred for sp in cap.spans_of("op"))

    def test_uncaptured_ops_not_recorded(self, rng):
        A = random_matrix(rng, 4, 4, 0.5)
        C = grb.Matrix(grb.INT64, 4, 4)
        grb.mxm(C, None, None, grb.PLUS_TIMES[grb.INT64], A, A)
        with obs.capture() as cap:
            pass
        assert op_count(cap) == 0

    def test_report_aggregates_by_label(self, rng):
        A = random_matrix(rng, 4, 4, 0.5)
        C = grb.Matrix(grb.INT64, 4, 4)
        with obs.capture() as cap:
            for _ in range(3):
                grb.apply(C, None, None, grb.IDENTITY[grb.INT64], A)
        assert op_count(cap, "apply") == 3
        assert "apply" in cap.report()

    def test_nested_capture_rejected(self):
        with obs.capture():
            with pytest.raises(grb.InvalidValue):
                with obs.capture():
                    pass

    def test_capture_is_reentrant_after_exit(self):
        with obs.capture() as c1:
            pass
        with obs.capture() as c2:
            pass
        assert op_count(c1) == 0 and op_count(c2) == 0
