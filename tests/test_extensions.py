"""Spec 1.3/2.0 extensions: resize, diag, import/export, serialization,
and eWiseUnion."""

import numpy as np
import pytest

import repro as grb
from repro.io import deserialize, serialize
from repro.ops import AINV, binary, index_unary

from tests.conftest import random_matrix, random_vector


def _negate_queued(obj, exec_mode):
    """Queue ``obj = -obj`` and check it is still deferred in nonblocking
    mode, so the call under test is the sequence point that runs it."""
    grb.apply(obj, None, None, AINV[obj.type], obj)
    queued = grb.context.current_context().queue.involves(obj)
    assert queued == (exec_mode == "nonblocking_planner")


class TestResize:
    def test_matrix_shrink_drops_out_of_bounds(self, rng):
        A = random_matrix(rng, 8, 8, 0.5)
        before = {(i, j): int(v) for i, j, v in A}
        A.resize(5, 3)
        assert A.shape == (5, 3)
        after = {(i, j): int(v) for i, j, v in A}
        assert after == {k: v for k, v in before.items() if k[0] < 5 and k[1] < 3}

    def test_matrix_grow_keeps_everything(self, rng):
        A = random_matrix(rng, 4, 4, 0.6)
        before = {(i, j): int(v) for i, j, v in A}
        A.resize(10, 12)
        assert A.shape == (10, 12)
        assert {(i, j): int(v) for i, j, v in A} == before

    def test_resize_then_operate(self, rng):
        # the re-encoded keys must still be canonical for kernels
        A = random_matrix(rng, 6, 6, 0.5)
        expected = A.to_dense(0)[:, :4]
        A.resize(6, 4)
        C = grb.Matrix(grb.INT64, 4, 6)
        grb.transpose(C, None, None, A)
        assert (C.to_dense(0) == expected.T).all()

    def test_vector_resize(self, rng):
        v = random_vector(rng, 10, 0.8)
        before = dict(iter(v))
        v.resize(4)
        assert v.size == 4
        assert dict(iter(v)) == {i: x for i, x in before.items() if i < 4}
        v.resize(20)
        assert v.size == 20

    def test_vector_resize_after_deferred_reader(self, exec_mode):
        # a queued op that reads v must see v before the resize (section IV:
        # nonblocking mode may not change what a program computes)
        v = grb.Vector.from_coo(grb.INT64, 8, [0, 5], [1, 2])
        w = grb.Vector(grb.INT64, 8)
        grb.apply(w, None, None, AINV[grb.INT64], v)
        v.resize(3)
        grb.wait()
        assert dict(iter(w)) == {0: -1, 5: -2}
        assert dict(iter(v)) == {0: 1}

    def test_matrix_resize_after_deferred_reader(self, exec_mode):
        A = grb.Matrix.from_coo(grb.INT64, 4, 4, [0, 3], [1, 2], [1, 2])
        C = grb.Matrix(grb.INT64, 4, 4)
        grb.apply(C, None, None, AINV[grb.INT64], A)
        A.resize(2, 2)
        grb.wait()
        assert [(i, j, int(x)) for i, j, x in C] == [(0, 1, -1), (3, 2, -2)]
        assert [(i, j, int(x)) for i, j, x in A] == [(0, 1, 1)]

    def test_invalid_sizes(self):
        A = grb.Matrix(grb.INT64, 2, 2)
        with pytest.raises(grb.InvalidValue):
            A.resize(0, 2)
        v = grb.Vector(grb.INT64, 2)
        with pytest.raises(grb.InvalidValue):
            v.resize(-1)


class TestDiag:
    def test_matrix_diag_main(self):
        v = grb.Vector.from_coo(grb.FP64, 3, [0, 2], [1.5, 2.5])
        D = grb.Matrix.diag(v)
        assert D.shape == (3, 3)
        assert {(i, j): float(x) for i, j, x in D} == {
            (0, 0): 1.5, (2, 2): 2.5,
        }

    def test_matrix_diag_offsets(self):
        v = grb.Vector.from_coo(grb.INT64, 2, [0, 1], [7, 8])
        D1 = grb.Matrix.diag(v, 1)
        assert D1.shape == (3, 3)
        assert {(i, j): int(x) for i, j, x in D1} == {(0, 1): 7, (1, 2): 8}
        D2 = grb.Matrix.diag(v, -2)
        assert {(i, j): int(x) for i, j, x in D2} == {(2, 0): 7, (3, 1): 8}

    def test_vector_from_diag(self, rng):
        A = random_matrix(rng, 5, 5, 0.7)
        d = grb.Vector.from_diag(A)
        dense = A.to_dense(0)
        pat = {(i, j) for i, j, _ in A}
        expect = {i: dense[i, i] for i in range(5) if (i, i) in pat}
        assert {i: int(v) for i, v in d} == expect

    def test_vector_from_diag_offset(self, rng):
        A = random_matrix(rng, 5, 5, 0.8)
        d = grb.Vector.from_diag(A, 2)
        assert d.size == 3
        pat = {(i, j) for i, j, _ in A}
        dense = A.to_dense(0)
        expect = {i: dense[i, i + 2] for i in range(3) if (i, i + 2) in pat}
        assert {i: int(v) for i, v in d} == expect

    def test_diag_roundtrip(self):
        v = grb.Vector.from_coo(grb.FP64, 4, [1, 3], [0.5, 0.25])
        back = grb.Vector.from_diag(grb.Matrix.diag(v))
        assert dict(iter(back)) == dict(iter(v))

    def test_diag_after_deferred_writer(self, exec_mode):
        v = grb.Vector.from_coo(grb.INT64, 3, [0, 2], [4, 5])
        _negate_queued(v, exec_mode)
        D = grb.Matrix.diag(v, 1)
        assert {(i, j): int(x) for i, j, x in D} == {(0, 1): -4, (2, 3): -5}
        A = grb.Matrix.from_coo(grb.INT64, 3, 3, [0, 1, 2], [0, 2, 2], [1, 2, 3])
        _negate_queued(A, exec_mode)
        d = grb.Vector.from_diag(A)
        assert {i: int(x) for i, x in d} == {0: -1, 2: -3}


class TestImportExport:
    def test_csr_round_trip(self, rng):
        A = random_matrix(rng, 6, 9, 0.5)
        indptr, cols, vals = A.export_csr()
        B = grb.Matrix.import_csr(grb.INT64, 6, 9, indptr, cols, vals)
        assert {(i, j): int(v) for i, j, v in A} == {
            (i, j): int(v) for i, j, v in B
        }

    def test_csc_export_matches_transpose(self, rng):
        A = random_matrix(rng, 5, 7, 0.5)
        indptr, rows, vals = A.export_csc()
        T = grb.Matrix.import_csr(grb.INT64, 7, 5, indptr, rows, vals)
        assert (T.to_dense(0) == A.to_dense(0).T).all()

    def test_import_validates_indptr(self):
        with pytest.raises(grb.InvalidValue):
            grb.Matrix.import_csr(grb.INT64, 2, 2, [0, 1], [0], [1])
        with pytest.raises(grb.InvalidValue):
            grb.Matrix.import_csr(grb.INT64, 2, 2, [0, 2, 1], [0, 1], [1, 2])

    def test_import_validates_sorted_unique(self):
        with pytest.raises(grb.InvalidValue):
            grb.Matrix.import_csr(grb.INT64, 1, 3, [0, 2], [1, 0], [1, 2])
        with pytest.raises(grb.InvalidValue):
            grb.Matrix.import_csr(grb.INT64, 1, 3, [0, 2], [1, 1], [1, 2])

    def test_import_validates_bounds(self):
        with pytest.raises(grb.IndexOutOfBounds):
            grb.Matrix.import_csr(grb.INT64, 1, 2, [0, 1], [5], [1])

    def test_vector_round_trip(self, rng):
        v = random_vector(rng, 12, 0.5)
        idx, vals = v.export_sparse()
        w = grb.Vector.import_sparse(grb.INT64, 12, idx, vals)
        assert dict(iter(v)) == dict(iter(w))
        # the import copies: editing the caller's arrays leaves w alone
        idx[0], vals[0] = 11, 99
        assert dict(iter(v)) == dict(iter(w))

    def test_vector_import_validates(self):
        with pytest.raises(grb.InvalidValue):
            grb.Vector.import_sparse(grb.INT64, 5, [3, 1], [1, 2])
        with pytest.raises(grb.IndexOutOfBounds):
            grb.Vector.import_sparse(grb.INT64, 5, [7], [1])

    def test_export_csr_after_deferred_writer(self, exec_mode):
        A = grb.Matrix.from_coo(grb.INT64, 2, 3, [0, 1], [2, 1], [7, 4])
        _negate_queued(A, exec_mode)
        indptr, cols, vals = A.export_csr()
        assert indptr.tolist() == [0, 1, 2]
        assert cols.tolist() == [2, 1]
        assert vals.tolist() == [-7, -4]

    def test_import_over_object_with_queued_writer(self, exec_mode):
        # A is replaced by an import of its own export while its writer is
        # queued: the import holds the written content, and a queued reader
        # of the import keeps it even when the caller edits its arrays
        A = grb.Matrix.from_coo(grb.INT64, 2, 3, [0, 1], [2, 1], [7, 4])
        _negate_queued(A, exec_mode)
        indptr, cols, vals = A.export_csr()
        A = grb.Matrix.import_csr(grb.INT64, 2, 3, indptr, cols, vals)
        C = grb.Matrix(grb.INT64, 2, 3)
        grb.apply(C, None, None, AINV[grb.INT64], A)
        cols[:], vals[:] = 0, 99
        v = grb.Vector.from_coo(grb.INT64, 4, [1, 3], [8, 9])
        _negate_queued(v, exec_mode)
        idx, xs = v.export_sparse()
        v = grb.Vector.import_sparse(grb.INT64, 4, idx, xs)
        w = grb.Vector(grb.INT64, 4)
        grb.apply(w, None, None, AINV[grb.INT64], v)
        idx[:], xs[:] = 0, 99
        grb.wait()
        assert {(i, j): int(x) for i, j, x in A} == {(0, 2): -7, (1, 1): -4}
        assert {(i, j): int(x) for i, j, x in C} == {(0, 2): 7, (1, 1): 4}
        assert {i: int(x) for i, x in v} == {1: -8, 3: -9}
        assert {i: int(x) for i, x in w} == {1: 8, 3: 9}


class TestSerialization:
    def test_matrix_round_trip(self, rng):
        A = random_matrix(rng, 7, 5, 0.4, domain=grb.FP64)
        B = deserialize(serialize(A))
        assert B.shape == A.shape and B.type is grb.FP64
        assert {(i, j): float(v) for i, j, v in A} == {
            (i, j): float(v) for i, j, v in B
        }

    def test_empty_matrix(self):
        A = grb.Matrix(grb.INT8, 3, 3)
        B = deserialize(serialize(A))
        assert B.nvals() == 0 and B.type is grb.INT8

    def test_vector_round_trip(self, rng):
        v = random_vector(rng, 9, 0.5, domain=grb.INT32)
        w = deserialize(serialize(v))
        assert w.size == 9 and w.type is grb.INT32
        assert dict(iter(v)) == dict(iter(w))

    def test_scalar_round_trip(self):
        s = grb.Scalar.from_value(grb.FP32, 2.5)
        t = deserialize(serialize(s))
        assert t.extract_value() == np.float32(2.5)
        empty = deserialize(serialize(grb.Scalar(grb.FP32)))
        assert empty.is_empty()

    def test_udt_round_trip(self):
        T = grb.powerset_type()
        v = grb.Vector(T, 3)
        v.build([0, 2], [frozenset({1}), frozenset({2, 3})])
        w = deserialize(serialize(v), udt_class=frozenset)
        assert w.extract_element(2) == frozenset({2, 3})

    def test_udt_requires_class(self):
        T = grb.powerset_type()
        v = grb.Vector(T, 1)
        with pytest.raises(grb.InvalidValue):
            deserialize(serialize(v))

    def test_garbage_rejected(self):
        with pytest.raises(grb.InvalidValue):
            deserialize(b"not a blob")

    def test_serialize_after_deferred_writer(self, exec_mode):
        A = grb.Matrix.from_coo(grb.FP64, 2, 3, [0, 1], [2, 1], [1.5, 4.0])
        _negate_queued(A, exec_mode)
        B = deserialize(serialize(A))
        assert {(i, j): float(x) for i, j, x in B} == {
            (0, 2): -1.5, (1, 1): -4.0,
        }
        v = grb.Vector.from_coo(grb.INT32, 5, [0, 4], [3, 2])
        _negate_queued(v, exec_mode)
        assert {i: int(x) for i, x in deserialize(serialize(v))} == {
            0: -3, 4: -2,
        }


class TestEWiseUnion:
    def test_minus_with_zero_fills(self):
        A = grb.Matrix.from_coo(grb.INT64, 1, 3, [0, 0], [0, 1], [5, 3])
        B = grb.Matrix.from_coo(grb.INT64, 1, 3, [0, 0], [1, 2], [1, 7])
        C = grb.Matrix(grb.INT64, 1, 3)
        grb.ewise_union(C, None, None, binary.MINUS[grb.INT64], A, 0, B, 0)
        # union with fills: 5-0, 3-1, 0-7
        assert {(i, j): int(v) for i, j, v in C} == {
            (0, 0): 5, (0, 1): 2, (0, 2): -7,
        }

    def test_differs_from_ewise_add(self):
        A = grb.Matrix.from_coo(grb.INT64, 1, 2, [0], [0], [5])
        B = grb.Matrix.from_coo(grb.INT64, 1, 2, [0], [1], [3])
        Cu = grb.Matrix(grb.INT64, 1, 2)
        Ca = grb.Matrix(grb.INT64, 1, 2)
        grb.ewise_union(Cu, None, None, binary.MINUS[grb.INT64], A, 0, B, 0)
        grb.ewise_add(Ca, None, None, binary.MINUS[grb.INT64], A, B)
        assert Cu.extract_element(0, 1) == -3  # 0 - 3
        assert Ca.extract_element(0, 1) == 3   # copied through

    def test_matches_dense_subtraction(self, rng):
        A = random_matrix(rng, 6, 6, 0.4)
        B = random_matrix(rng, 6, 6, 0.4)
        C = grb.Matrix(grb.INT64, 6, 6)
        grb.ewise_union(C, None, None, binary.MINUS[grb.INT64], A, 0, B, 0)
        assert (C.to_dense(0) == A.to_dense(0) - B.to_dense(0)).all()

    def test_vector_union(self):
        u = grb.Vector.from_coo(grb.FP64, 3, [0], [2.0])
        v = grb.Vector.from_coo(grb.FP64, 3, [1], [4.0])
        w = grb.Vector(grb.FP64, 3)
        grb.ewise_union(w, None, None, binary.DIV[grb.FP64], u, 1.0, v, 2.0)
        assert w.extract_element(0) == 1.0  # 2/2 (beta)
        assert w.extract_element(1) == 0.25  # 1/4 (alpha)

    def test_union_after_deferred_writer(self, exec_mode):
        # the union reads A as the queued op before it leaves it, and B
        # through INP1 = TRAN
        A = grb.Matrix.from_coo(grb.INT64, 2, 3, [0, 1], [0, 2], [5, 4])
        B = grb.Matrix.from_coo(grb.INT64, 3, 2, [1, 2], [0, 1], [3, 1])
        grb.apply(A, None, None, AINV[grb.INT64], A)
        C = grb.Matrix(grb.INT64, 2, 3)
        d = grb.Descriptor().set(grb.INP1, grb.TRAN)
        grb.ewise_union(C, None, None, binary.MINUS[grb.INT64], A, 10, B, 0, d)
        grb.wait()
        assert {(i, j): int(v) for i, j, v in C} == {
            (0, 0): -5, (0, 1): 10 - 3, (1, 2): -4 - 1,
        }

    def test_api_error_keeps_pending_sequence(self, exec_mode):
        A = grb.Matrix.from_coo(grb.INT64, 2, 3, [0, 1], [0, 2], [5, 4])
        C = grb.Matrix(grb.INT64, 2, 3)
        grb.apply(C, None, None, AINV[grb.INT64], A)
        minus = binary.MINUS[grb.INT64]
        with pytest.raises(grb.DimensionMismatch):
            grb.ewise_union(C, None, None, minus, A, 0, grb.Matrix(grb.INT64, 3, 3), 0)
        with pytest.raises(grb.InvalidValue):
            grb.ewise_union(C, None, None, minus, A, 0, grb.Vector(grb.INT64, 3), 0)
        grb.wait()
        assert {(i, j): int(v) for i, j, v in C} == {(0, 0): -5, (1, 2): -4}


class TestApplyIndex:
    def test_apply_index_after_deferred_writer(self, exec_mode):
        # the positions are those of the oriented input: under INP0 = TRAN,
        # A(i, j) lands at C(j, i) and reports row j
        A = grb.Matrix.from_coo(grb.INT64, 2, 3, [0, 1], [2, 1], [7, 7])
        grb.apply(A, None, None, AINV[grb.INT64], A)
        A.set_element(1, 0, 1)
        C = grb.Matrix(grb.INT64, 3, 2)
        d = grb.Descriptor().set(grb.INP0, grb.TRAN)
        grb.apply_index(C, None, None, index_unary.ROWINDEX, A, 100, d)
        w = grb.Vector.from_coo(grb.INT64, 4, [1, 3], [8, 9])
        grb.apply(w, None, None, AINV[grb.INT64], w)
        grb.apply_index(w, None, None, index_unary.ROWINDEX, w, 0)
        grb.wait()
        assert {(i, j): int(v) for i, j, v in C} == {
            (2, 0): 102, (1, 1): 101, (0, 1): 100,
        }
        assert {i: int(v) for i, v in w} == {1: 1, 3: 3}

    def test_api_error_keeps_pending_sequence(self, exec_mode):
        A = grb.Matrix.from_coo(grb.INT64, 2, 3, [0, 1], [2, 1], [7, 7])
        C = grb.Matrix(grb.INT64, 2, 3)
        grb.apply(C, None, None, AINV[grb.INT64], A)
        col = index_unary.COLINDEX
        with pytest.raises(grb.DimensionMismatch):
            grb.apply_index(C, None, None, col, grb.Matrix(grb.INT64, 3, 2), 0)
        with pytest.raises(grb.InvalidValue):
            grb.apply_index(C, None, None, col, grb.Vector(grb.INT64, 2), 0)
        grb.wait()
        assert {(i, j): int(v) for i, j, v in C} == {(0, 2): -7, (1, 1): -7}
