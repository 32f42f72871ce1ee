"""``extract`` (Table II row 10; Fig. 3 line 33)."""

import numpy as np
import pytest

import repro as grb
from repro.algebra import predefined
from repro.ops import binary

from tests.conftest import random_matrix, random_vector


class TestMatrixExtract:
    def test_submatrix(self, rng):
        A = random_matrix(rng, 8, 8, 0.5)
        C = grb.Matrix(grb.INT64, 3, 2)
        grb.matrix_extract(C, None, None, A, [1, 4, 6], [0, 7])
        expect = A.to_dense(0)[np.ix_([1, 4, 6], [0, 7])]
        assert (C.to_dense(0) == expect).all()

    def test_all_rows(self, rng):
        A = random_matrix(rng, 6, 6, 0.5)
        C = grb.Matrix(grb.INT64, 6, 2)
        grb.matrix_extract(C, None, None, A, grb.ALL, [3, 1])
        assert (C.to_dense(0) == A.to_dense(0)[:, [3, 1]]).all()

    def test_duplicate_indices_allowed(self, rng):
        A = random_matrix(rng, 5, 5, 0.6)
        C = grb.Matrix(grb.INT64, 3, 2)
        grb.matrix_extract(C, None, None, A, [2, 2, 0], [1, 1])
        expect = A.to_dense(0)[np.ix_([2, 2, 0], [1, 1])]
        assert (C.to_dense(0) == expect).all()

    def test_fig3_frontier_initialization(self):
        # frontier = Aᵀ(ALL, s) masked by ¬numsp, replace (lines 31-33)
        A = grb.Matrix.from_coo(
            grb.INT32, 4, 4,
            [0, 0, 1, 3], [1, 2, 2, 0], [1, 1, 1, 1],
        )
        s = np.array([0, 3])
        numsp = grb.Matrix(grb.INT32, 4, 2)
        numsp.build(s, np.arange(2), np.ones(2), binary.PLUS[grb.INT32])
        frontier = grb.Matrix(grb.INT32, 4, 2)
        grb.matrix_extract(frontier, numsp, None, A, grb.ALL, s, grb.DESC_TSR)
        # column 0 = out-neighbours of vertex 0: {1, 2}; col 1 = of 3: {0}
        assert {(i, j) for i, j, _ in frontier} == {(1, 0), (2, 0), (0, 1)}

    def test_transposed_extract(self, rng):
        A = random_matrix(rng, 5, 7, 0.5)
        C = grb.Matrix(grb.INT64, 7, 5)
        grb.matrix_extract(C, None, None, A, grb.ALL, grb.ALL, grb.DESC_T0)
        assert (C.to_dense(0) == A.to_dense(0).T).all()

    def test_out_of_range_index(self):
        A = grb.Matrix(grb.INT64, 3, 3)
        C = grb.Matrix(grb.INT64, 1, 1)
        with pytest.raises(grb.IndexOutOfBounds):
            grb.matrix_extract(C, None, None, A, [3], [0])

    def test_output_shape_mismatch(self):
        A = grb.Matrix(grb.INT64, 3, 3)
        C = grb.Matrix(grb.INT64, 2, 2)
        with pytest.raises(grb.DimensionMismatch):
            grb.matrix_extract(C, None, None, A, [0], [1, 2])


class TestVectorExtract:
    def test_subvector(self, rng):
        u = random_vector(rng, 10, 0.6)
        w = grb.Vector(grb.INT64, 4)
        grb.vector_extract(w, None, None, u, [9, 0, 3, 3])
        ud = u.to_dense(0)
        pat = {i for i, _ in u}
        expect = {
            k: ud[i] for k, i in enumerate([9, 0, 3, 3]) if i in pat
        }
        assert {i: int(v) for i, v in w} == expect

    def test_all(self, rng):
        u = random_vector(rng, 6, 0.5)
        w = grb.Vector(grb.INT64, 6)
        grb.vector_extract(w, None, None, u, grb.ALL)
        assert (w.to_dense(0) == u.to_dense(0)).all()

    def test_with_mask_and_accum(self):
        u = grb.Vector.from_coo(grb.INT64, 4, [0, 1, 2, 3], [1, 2, 3, 4])
        w = grb.Vector.from_coo(grb.INT64, 4, [0, 1], [10, 10])
        m = grb.Vector.from_coo(grb.BOOL, 4, [0], [True])
        grb.vector_extract(w, m, binary.PLUS[grb.INT64], u, grb.ALL)
        # only index 0 written: 10 + 1; index 1 untouched
        assert {i: int(v) for i, v in w} == {0: 11, 1: 10}


class TestColExtract:
    def test_column(self, rng):
        A = random_matrix(rng, 6, 4, 0.5)
        w = grb.Vector(grb.INT64, 6)
        grb.col_extract(w, None, None, A, grb.ALL, 2)
        assert (w.to_dense(0) == A.to_dense(0)[:, 2]).all()

    def test_row_via_tran(self, rng):
        A = random_matrix(rng, 6, 4, 0.5)
        w = grb.Vector(grb.INT64, 4)
        grb.col_extract(w, None, None, A, grb.ALL, 3, grb.DESC_T0)
        assert (w.to_dense(0) == A.to_dense(0)[3, :]).all()

    def test_subset_rows(self, rng):
        A = random_matrix(rng, 6, 4, 0.7)
        w = grb.Vector(grb.INT64, 2)
        grb.col_extract(w, None, None, A, [5, 1], 0)
        d = A.to_dense(0)
        pat = {(i, j) for i, j, _ in A}
        expect = {}
        if (5, 0) in pat:
            expect[0] = d[5, 0]
        if (1, 0) in pat:
            expect[1] = d[1, 0]
        assert {i: int(v) for i, v in w} == expect

    def test_column_out_of_range(self):
        A = grb.Matrix(grb.INT64, 3, 3)
        with pytest.raises(grb.InvalidIndex):
            grb.col_extract(grb.Vector(grb.INT64, 3), None, None, A, grb.ALL, 5)

    def test_column_out_of_range_is_invalid_index(self, exec_mode):
        # a scalar column outside A (a row under INP0=TRAN) is
        # GrB_INVALID_INDEX, an API error (section V): raised at the call,
        # nothing queued, w unchanged; a bad row-list entry stays
        # IndexOutOfBounds
        A = grb.Matrix.from_coo(grb.INT64, 3, 2, [0, 2], [1, 0], [5, 6])
        w = grb.Vector.from_coo(grb.INT64, 3, [1], [42])
        enqueued = grb.queue_stats()["enqueued"]
        for col, desc in ((2, None), (-1, None), (3, grb.DESC_T0)):
            with pytest.raises(grb.InvalidIndex):
                grb.col_extract(w, None, None, A, grb.ALL, col, desc)
        with pytest.raises(grb.IndexOutOfBounds):
            grb.col_extract(w, None, None, A, [0, 1, 7], 0)
        assert grb.queue_stats()["enqueued"] == enqueued
        grb.wait()
        assert {i: int(v) for i, v in w} == {1: 42}


class TestGenericDispatch:
    def test_dispatch_matrix(self, rng):
        A = random_matrix(rng, 4, 4, 0.5)
        C = grb.Matrix(grb.INT64, 4, 4)
        grb.extract(C, None, None, A, grb.ALL, grb.ALL)
        assert (C.to_dense(0) == A.to_dense(0)).all()

    def test_dispatch_vector(self, rng):
        u = random_vector(rng, 5, 0.5)
        w = grb.Vector(grb.INT64, 5)
        grb.extract(w, None, None, u, grb.ALL)
        assert (w.to_dense(0) == u.to_dense(0)).all()

    def test_dispatch_column(self, rng):
        A = random_matrix(rng, 5, 5, 0.5)
        w = grb.Vector(grb.INT64, 5)
        grb.extract(w, None, None, A, grb.ALL, 1)
        assert (w.to_dense(0) == A.to_dense(0)[:, 1]).all()


def test_col_extract_matches_matrix_extract_of_one_column(exec_mode):
    # GrB_Col_extract keeps its own column-slice kernel: it must agree with
    # the general extract over the column list [j], TRAN included
    rng = np.random.default_rng(41)
    for case in range(40):
        m, n = rng.integers(1, 8, size=2)
        A = random_matrix(rng, m, n, rng.uniform(0.1, 0.8))
        tran = bool(case % 2)
        rows, cols = (n, m) if tran else (m, n)
        ri = (
            grb.ALL if case % 5 == 0
            else rng.integers(0, rows, size=rng.integers(1, 2 * rows)).tolist()
        )
        k = rows if ri is grb.ALL else len(ri)
        j = int(rng.integers(0, cols))
        accum = binary.PLUS[grb.INT64] if case % 3 == 0 else None
        d = grb.Descriptor()
        if tran:
            d.set(grb.INP0, grb.TRAN)
        w = random_vector(rng, k, 0.5)
        wi, wv = w.extract_tuples()
        C = grb.Matrix.from_coo(grb.INT64, k, 1, wi, [0] * len(wi), wv)
        grb.col_extract(w, None, accum, A, ri, j, d)
        grb.matrix_extract(C, None, accum, A, ri, [j], d)
        grb.wait()
        got = [(int(i), int(v)) for i, v in w]
        want = [(int(i), int(v)) for i, _, v in C]
        assert got == want, (case, ri, j, tran)
