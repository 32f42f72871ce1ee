"""Matrix collection semantics (paper section III-A)."""

import numpy as np
import pytest

import repro as grb
from repro.ops import binary


class TestConstruction:
    def test_matrix_new(self):
        A = grb.matrix_new(grb.FP32, 3, 7)
        assert A.nrows == 3 and A.ncols == 7 and A.nvals() == 0
        assert A.shape == (3, 7)

    def test_dimensions_must_be_positive(self):
        with pytest.raises(grb.InvalidValue):
            grb.Matrix(grb.FP32, 0, 3)
        with pytest.raises(grb.InvalidValue):
            grb.Matrix(grb.FP32, 3, -1)

    def test_null_domain(self):
        with pytest.raises(grb.NullPointer):
            grb.Matrix(None, 3, 3)


class TestBuild:
    def test_build_fig3_numsp_pattern(self):
        # numsp[s[i], i] = 1 for each source (Fig. 3 eq. 2, lines 20-29)
        s = np.array([4, 1, 7])
        numsp = grb.Matrix(grb.INT32, 10, 3)
        numsp.build(s, np.arange(3), np.ones(3), binary.PLUS[grb.INT32])
        assert numsp.nvals() == 3
        for i, src in enumerate(s):
            assert numsp.extract_element(int(src), i) == 1

    def test_build_dup_combines_in_order(self):
        A = grb.Matrix(grb.INT32, 2, 2)
        A.build([0, 0, 0], [1, 1, 1], [1, 2, 3], binary.PLUS[grb.INT32])
        assert A.extract_element(0, 1) == 6

    def test_build_duplicates_without_dup(self):
        A = grb.Matrix(grb.INT32, 2, 2)
        with pytest.raises(grb.InvalidValue):
            A.build([0, 0], [1, 1], [1, 2])

    def test_build_nonempty_target(self):
        A = grb.Matrix(grb.INT32, 2, 2)
        A.set_element(0, 0, 1)
        with pytest.raises(grb.OutputNotEmpty):
            A.build([1], [1], [1])

    def test_build_bounds(self):
        A = grb.Matrix(grb.INT32, 2, 2)
        with pytest.raises(grb.IndexOutOfBounds):
            A.build([2], [0], [1])
        with pytest.raises(grb.IndexOutOfBounds):
            A.build([0], [5], [1])

    def test_build_row_col_length_mismatch(self):
        A = grb.Matrix(grb.INT32, 2, 2)
        with pytest.raises(grb.DimensionMismatch):
            A.build([0, 1], [0], [1, 2])


class TestElementAccess:
    def test_set_extract_remove(self):
        A = grb.Matrix(grb.FP64, 3, 3)
        A.set_element(1, 2, 4.5)
        assert A.extract_element(1, 2) == 4.5
        A.remove_element(1, 2)
        with pytest.raises(grb.NoValue):
            A.extract_element(1, 2)

    def test_undefined_not_zero(self):
        A = grb.Matrix(grb.FP64, 3, 3)
        A.set_element(0, 0, 0.0)
        assert A.nvals() == 1
        with pytest.raises(grb.NoValue):
            A.extract_element(0, 1)

    def test_bounds(self):
        A = grb.Matrix(grb.FP64, 3, 3)
        with pytest.raises(grb.IndexOutOfBounds):
            A.set_element(3, 0, 1.0)
        with pytest.raises(grb.IndexOutOfBounds):
            A.extract_element(0, 3)

    def test_keyword_arguments(self):
        # the C API's parameter names are part of the public signature
        A = grb.Matrix(grb.INT64, 3, 3)
        A.build(rows=[0, 0], cols=[1, 1], values=[2, 3], dup=binary.PLUS[grb.INT64])
        A.set_element(row=2, col=0, value=7)
        assert A.extract_element(row=0, col=1) == 5
        A.remove_element(row=0, col=1)
        A.resize(nrows=4, ncols=2)
        assert (A.nrows, A.ncols) == (4, 2)
        assert A.to_dense(0).tolist() == [[0, 0], [0, 0], [7, 0], [0, 0]]

    def test_iter_tuples(self):
        A = grb.Matrix.from_coo(grb.INT32, 3, 3, [2, 0], [1, 2], [5, 9])
        assert {(i, j): int(v) for i, j, v in A} == {(2, 1): 5, (0, 2): 9}


class TestViews:
    def test_csr_view(self):
        A = grb.Matrix.from_coo(
            grb.INT32, 3, 4, [0, 0, 2], [1, 3, 0], [10, 20, 30]
        )
        v = A.csr()
        assert v.indptr.tolist() == [0, 2, 2, 3]
        assert v.indices.tolist() == [1, 3, 0]
        assert v.values.tolist() == [10, 20, 30]

    def test_csc_view_is_transpose_csr(self):
        A = grb.Matrix.from_coo(
            grb.INT32, 3, 4, [0, 0, 2], [1, 3, 0], [10, 20, 30]
        )
        v = A.csc()
        assert v.nrows == 4 and v.ncols == 3
        assert v.indptr.tolist() == [0, 1, 2, 2, 3]
        assert v.indices.tolist() == [2, 0, 0]
        assert v.values.tolist() == [30, 10, 20]

    def test_views_invalidate_on_mutation(self):
        A = grb.Matrix.from_coo(grb.INT32, 2, 2, [0], [0], [1])
        _ = A.csr()
        A.set_element(1, 1, 2)
        assert A.csr().nnz == 2
        assert A.csc().nnz == 2


class TestLifecycle:
    def test_clear(self):
        A = grb.Matrix.from_coo(grb.INT32, 2, 2, [0], [0], [1])
        A.clear()
        assert A.nvals() == 0 and A.shape == (2, 2)

    def test_dup_independent(self):
        A = grb.Matrix.from_coo(grb.INT32, 2, 2, [0], [0], [1])
        B = A.dup()
        B.set_element(0, 0, 9)
        assert A.extract_element(0, 0) == 1

    def test_free(self):
        A = grb.Matrix(grb.INT32, 2, 2)
        A.free()
        with pytest.raises(grb.UninitializedObject):
            A.nvals()
        with pytest.raises(grb.UninitializedObject):
            _ = A.nrows


class TestDense:
    def test_round_trip(self, rng):
        D = rng.integers(0, 3, (5, 7))
        A = grb.Matrix.from_dense(grb.INT64, D)
        assert (A.to_dense(0) == D).all()
        assert A.nvals() == int((D != 0).sum())

    def test_to_dense_fill_value(self):
        A = grb.Matrix.from_coo(grb.FP64, 2, 2, [0], [1], [5.0])
        D = A.to_dense(-1.0)
        assert D.tolist() == [[-1.0, 5.0], [-1.0, -1.0]]

    def test_from_dense_requires_2d(self):
        with pytest.raises(grb.InvalidValue):
            grb.Matrix.from_dense(grb.INT32, [1, 2, 3])


class TestTransposeDefinition:
    def test_paper_transpose_tuples(self):
        # A^T = <D, N, M, {(j, i, v)}> — section III-A
        A = grb.Matrix.from_coo(grb.INT32, 2, 3, [0, 1], [2, 0], [7, 8])
        C = grb.Matrix(grb.INT32, 3, 2)
        grb.transpose(C, None, None, A)
        assert {(i, j): int(v) for i, j, v in C} == {(2, 0): 7, (0, 1): 8}
