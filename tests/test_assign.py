"""``assign`` (Table II row 11; Fig. 3 lines 61 and 77)."""

import numpy as np
import pytest

import repro as grb
from repro.ops import binary
from repro.reference import RefVector, ref_assign_vector

from tests.conftest import random_matrix, random_vector


class TestMatrixAssign:
    def test_region_replaced_without_accum(self):
        C = grb.Matrix.from_dense(grb.INT64, [[1, 2], [3, 4]])
        A = grb.Matrix.from_coo(grb.INT64, 2, 1, [0], [0], [9])
        grb.matrix_assign(C, None, None, A, [0, 1], [1])
        # region (rows 0,1 × col 1): C(0,1)=9, C(1,1) deleted (A has no (1,0))
        assert {(i, j): int(v) for i, j, v in C} == {
            (0, 0): 1, (1, 0): 3, (0, 1): 9,
        }

    def test_region_merge_with_accum(self):
        C = grb.Matrix.from_dense(grb.INT64, [[1, 2], [3, 4]])
        A = grb.Matrix.from_coo(grb.INT64, 2, 1, [0], [0], [9])
        grb.matrix_assign(C, None, binary.PLUS[grb.INT64], A, [0, 1], [1])
        # accum: C(0,1) = 2+9; C(1,1) survives
        assert C.to_dense(0).tolist() == [[1, 11], [3, 4]]

    def test_outside_region_untouched(self, rng):
        C = random_matrix(rng, 6, 6, 0.5)
        before = {(i, j): int(v) for i, j, v in C}
        A = grb.Matrix(grb.INT64, 2, 2)  # empty source clears the region
        grb.matrix_assign(C, None, None, A, [1, 2], [3, 4])
        after = {(i, j): int(v) for i, j, v in C}
        region = {(i, j) for i in (1, 2) for j in (3, 4)}
        for pos, v in before.items():
            if pos not in region:
                assert after[pos] == v
        assert not (set(after) & region)

    def test_transposed_source(self):
        C = grb.Matrix(grb.INT64, 2, 3)
        A = grb.Matrix.from_dense(grb.INT64, [[1, 2], [3, 4], [5, 6]])
        grb.matrix_assign(C, None, None, A, [0, 1], [0, 1, 2], grb.DESC_T0)
        assert (C.to_dense(0) == A.to_dense(0).T).all()

    def test_duplicate_region_indices_rejected(self):
        C = grb.Matrix(grb.INT64, 3, 3)
        A = grb.Matrix(grb.INT64, 2, 2)
        with pytest.raises(grb.InvalidValue):
            grb.matrix_assign(C, None, None, A, [1, 1], [0, 2])
        # a repeat anywhere in an unsorted list, in every assign form
        w = grb.Vector(grb.INT64, 3)
        calls = [
            lambda: grb.matrix_assign(
                C, None, None, grb.Matrix(grb.INT64, 2, 3), [0, 2], [2, 0, 2]
            ),
            lambda: grb.matrix_assign_scalar(C, None, None, 1, [2, 0, 2], [1]),
            lambda: grb.vector_assign(
                w, None, None, grb.Vector(grb.INT64, 3), [2, 0, 2]
            ),
            lambda: grb.vector_assign_scalar(w, None, None, 1, [1, 0, 1]),
        ]
        for call in calls:
            with pytest.raises(grb.InvalidValue):
                call()
        assert C.nvals() == 0 and w.nvals() == 0

    def test_source_shape_mismatch(self):
        C = grb.Matrix(grb.INT64, 3, 3)
        A = grb.Matrix(grb.INT64, 2, 2)
        with pytest.raises(grb.DimensionMismatch):
            grb.matrix_assign(C, None, None, A, [0], [1, 2])


class TestMatrixAssignScalar:
    def test_fig3_line61_dense_fill(self):
        # bcu filled with 1.0 over ALL × ALL "to avoid sparsity issues"
        bcu = grb.Matrix(grb.FP32, 3, 2)
        grb.matrix_assign_scalar(bcu, None, None, 1.0, grb.ALL, grb.ALL)
        assert bcu.nvals() == 6
        assert (bcu.to_dense(0) == 1.0).all()

    def test_partial_region_fill(self):
        C = grb.Matrix.from_dense(grb.INT64, [[1, 2], [3, 4]])
        grb.matrix_assign_scalar(C, None, None, 7, [1], [0, 1])
        assert C.to_dense(0).tolist() == [[1, 2], [7, 7]]

    def test_scalar_accum(self):
        C = grb.Matrix.from_dense(grb.INT64, [[1, 2], [3, 4]])
        grb.matrix_assign_scalar(
            C, None, binary.TIMES[grb.INT64], 10, grb.ALL, grb.ALL
        )
        assert C.to_dense(0).tolist() == [[10, 20], [30, 40]]

    def test_masked_fill(self):
        C = grb.Matrix(grb.INT64, 2, 2)
        M = grb.Matrix.from_coo(grb.BOOL, 2, 2, [0, 1], [0, 1], [True, True])
        grb.matrix_assign_scalar(C, M, None, 5, grb.ALL, grb.ALL)
        assert {(i, j): int(v) for i, j, v in C} == {(0, 0): 5, (1, 1): 5}


class TestVectorAssign:
    def test_vector_into_region(self):
        w = grb.Vector.from_coo(grb.INT64, 5, [0, 2, 4], [1, 2, 3])
        u = grb.Vector.from_coo(grb.INT64, 2, [0], [9])
        grb.vector_assign(w, None, None, u, [2, 4])
        # region {2,4}: w(2)=9 (u(0)), w(4) deleted (u(1) absent)
        assert {i: int(v) for i, v in w} == {0: 1, 2: 9}

    def test_fig3_line77_fill(self):
        delta = grb.Vector(grb.FP32, 4)
        grb.vector_assign_scalar(delta, None, None, -3.0, grb.ALL)
        assert delta.to_dense(0).tolist() == [-3.0] * 4

    def test_scalar_partial(self):
        w = grb.Vector.from_coo(grb.INT64, 4, [0, 1], [5, 6])
        grb.vector_assign_scalar(w, None, None, 0, [1, 3])
        assert {i: int(v) for i, v in w} == {0: 5, 1: 0, 3: 0}

    def test_size_mismatch(self):
        w = grb.Vector(grb.INT64, 5)
        u = grb.Vector(grb.INT64, 3)
        with pytest.raises(grb.DimensionMismatch):
            grb.vector_assign(w, None, None, u, [0, 1])

    def test_masked_replace_deletes_outside(self, rng):
        w = random_vector(rng, 8, 0.8)
        m = grb.Vector.from_coo(grb.BOOL, 8, [1, 3], [True, True])
        d = grb.Descriptor().set(grb.OUTP, grb.REPLACE)
        grb.vector_assign_scalar(w, m, None, 42, grb.ALL, d)
        # replace + mask: only masked positions survive
        assert {i: int(v) for i, v in w} == {1: 42, 3: 42}


class TestRowColAssign:
    def test_row_assign(self):
        C = grb.Matrix.from_dense(grb.INT64, [[1, 2, 3], [4, 5, 6]])
        u = grb.Vector.from_coo(grb.INT64, 3, [0, 2], [7, 9])
        grb.row_assign(C, None, None, u, 1, grb.ALL)
        # row 1 region-replaced: (1,1) deleted, (1,0)=7, (1,2)=9
        assert {(i, j): int(v) for i, j, v in C} == {
            (0, 0): 1, (0, 1): 2, (0, 2): 3, (1, 0): 7, (1, 2): 9,
        }

    def test_col_assign_with_accum(self):
        C = grb.Matrix.from_dense(grb.INT64, [[1, 2], [3, 4]])
        u = grb.Vector.from_coo(grb.INT64, 2, [0, 1], [10, 20])
        grb.col_assign(C, None, binary.PLUS[grb.INT64], u, grb.ALL, 0)
        assert C.to_dense(0).tolist() == [[11, 2], [23, 4]]

    def test_row_assign_mask_within_row(self):
        C = grb.Matrix.from_dense(grb.INT64, [[1, 2, 3]])
        u = grb.Vector.from_coo(grb.INT64, 3, [0, 1, 2], [7, 8, 9])
        m = grb.Vector.from_coo(grb.BOOL, 3, [1], [True])
        grb.row_assign(C, m, None, u, 0, grb.ALL)
        # only the masked column within the row is written
        assert C.to_dense(0).tolist() == [[1, 8, 3]]

    @pytest.mark.parametrize("is_row", [True, False], ids=["row", "col"])
    @pytest.mark.parametrize(
        "mask_kind", [None, "value", "structure", "complement"]
    )
    @pytest.mark.parametrize("accum", [None, binary.PLUS[grb.INT64]],
                             ids=["no_accum", "plus"])
    @pytest.mark.parametrize("replace", [False, True],
                             ids=["merge", "replace"])
    def test_line_matches_reference(
        self, rng, is_row, mask_kind, accum, replace
    ):
        # row/col assign is a vector assign on the extracted line: compare
        # with the reference oracle run on that line, and the rest of C
        # must not move
        C = random_matrix(rng, 7, 8, 0.5)
        line, n = 3, (C.ncols if is_row else C.nrows)
        idx = rng.permutation(n)[:5].tolist()  # region in scatter order
        u = random_vector(rng, len(idx), 0.7)
        m = random_vector(rng, n, 0.6)  # stored zeros are false
        flags = dict(
            replace=replace,
            mask_comp=mask_kind == "complement",
            mask_struct=mask_kind == "structure",
        )
        d = grb.Descriptor()
        if replace:
            d.set(grb.OUTP, grb.REPLACE)
        if flags["mask_comp"]:
            d.set(grb.MASK, grb.SCMP)
        if flags["mask_struct"]:
            d.set(grb.MASK, grb.STRUCTURE)
        mask = None if mask_kind is None else m
        before = {(i, j): int(v) for i, j, v in C}

        def pos(i, j):  # (on the line?, position along it)
            return (i == line, j) if is_row else (j == line, i)

        ref = ref_assign_vector(
            RefVector(grb.INT64, n, {
                pos(*k)[1]: v for k, v in before.items() if pos(*k)[0]
            }),
            None if mask is None else RefVector.from_grb(m),
            accum, RefVector.from_grb(u), idx, **flags,
        )
        if is_row:
            grb.row_assign(C, mask, accum, u, line, idx, d)
        else:
            grb.col_assign(C, mask, accum, u, idx, line, d)
        want = {k: v for k, v in before.items() if not pos(*k)[0]}
        want.update({
            ((line, p) if is_row else (p, line)): int(v)
            for p, v in ref.content.items()
        })
        assert {(i, j): int(v) for i, j, v in C} == want

    def test_row_out_of_range(self):
        # API errors (section V) raise at call time, also in nonblocking
        # mode, and leave the output unchanged and readable
        grb.init(grb.Mode.NONBLOCKING)
        C = grb.Matrix.from_coo(grb.INT64, 2, 2, [0, 1], [1, 0], [3, 4])
        u = grb.Vector.from_coo(grb.INT64, 2, [0], [7])
        with pytest.raises(grb.InvalidIndex):
            grb.row_assign(C, None, None, u, 5, grb.ALL)
        # a mask's domain must be bool or built-in, as for every op
        udt_mask = grb.Vector(grb.powerset_type(), 2)
        with pytest.raises(grb.DomainMismatch):
            grb.row_assign(C, udt_mask, None, u, 0, grb.ALL)
        with pytest.raises(grb.DomainMismatch):
            grb.col_assign(C, udt_mask, None, u, grb.ALL, 0)
        assert grb.queue_stats()["enqueued"] == 0
        grb.wait()
        assert {(i, j): int(v) for i, j, v in C} == {(0, 1): 3, (1, 0): 4}

    def test_line_index_out_of_range_is_invalid_index(self, exec_mode):
        # a scalar row/column outside C is GrB_INVALID_INDEX, an API error
        # (section V): raised at the call, nothing queued, C unchanged;
        # an out-of-range entry of the index *list* stays IndexOutOfBounds
        C = grb.Matrix.from_coo(grb.INT64, 2, 3, [0, 1], [1, 0], [3, 4])
        u2 = grb.Vector.from_coo(grb.INT64, 2, [0], [7])
        u3 = grb.Vector.from_coo(grb.INT64, 3, [0], [7])
        enqueued = grb.queue_stats()["enqueued"]
        for bad in (-1, 3):
            with pytest.raises(grb.InvalidIndex):
                grb.col_assign(C, None, None, u2, grb.ALL, bad)
        for bad in (-1, 2):
            with pytest.raises(grb.InvalidIndex):
                grb.row_assign(C, None, None, u3, bad, grb.ALL)
        with pytest.raises(grb.IndexOutOfBounds):
            grb.col_assign(C, None, None, u2, [0, 5], 0)
        assert grb.queue_stats()["enqueued"] == enqueued
        grb.wait()
        assert {(i, j): int(v) for i, j, v in C} == {(0, 1): 3, (1, 0): 4}


class TestGenericDispatch:
    def test_dispatch_variants(self, rng):
        C = grb.Matrix(grb.INT64, 3, 3)
        A = random_matrix(rng, 3, 3, 0.5)
        grb.assign(C, None, None, A, grb.ALL, grb.ALL)
        assert (C.to_dense(0) == A.to_dense(0)).all()

        grb.assign(C, None, None, 5, grb.ALL, grb.ALL)  # scalar
        assert (C.to_dense(0) == 5).all()

        w = grb.Vector(grb.INT64, 3)
        grb.assign(w, None, None, -1, grb.ALL)
        assert (w.to_dense(0) == -1).all()

        u = grb.Vector.from_coo(grb.INT64, 3, [0], [3])
        grb.assign(w, None, None, u, grb.ALL)
        assert {i: int(v) for i, v in w} == {0: 3}

        grb.assign(C, None, None, u, 1, grb.ALL)  # row assign
        got = {(i, j): int(v) for i, j, v in C if i == 1}
        assert got == {(1, 0): 3}


def test_line_assign_matches_matrix_assign_of_one_line(exec_mode):
    # unmasked GrB_Row_assign / GrB_Col_assign keep their own splice: they
    # must agree with the general assign over a 1 x k / k x 1 region
    rng = np.random.default_rng(41)
    for case in range(40):
        m, n = (int(x) for x in rng.integers(1, 8, size=2))
        is_row = bool(case % 2)
        length, lines = (n, m) if is_row else (m, n)
        idx = (
            grb.ALL if case % 5 == 0
            else rng.permutation(length)[: rng.integers(1, length + 1)].tolist()
        )
        k = length if idx is grb.ALL else len(idx)
        line = int(rng.integers(0, lines))
        accum = binary.PLUS[grb.INT64] if case % 3 == 0 else None
        C1 = random_matrix(rng, m, n, rng.uniform(0.1, 0.8))
        C2 = C1.dup()
        u = random_vector(rng, k, rng.uniform(0.0, 1.0))
        ui, uv = u.extract_tuples()
        if is_row:
            U = grb.Matrix.from_coo(grb.INT64, 1, k, [0] * len(ui), ui, uv)
            grb.row_assign(C1, None, accum, u, line, idx)
            grb.matrix_assign(C2, None, accum, U, [line], idx)
        else:
            U = grb.Matrix.from_coo(grb.INT64, k, 1, ui, [0] * len(ui), uv)
            grb.col_assign(C1, None, accum, u, idx, line)
            grb.matrix_assign(C2, None, accum, U, idx, [line])
        grb.wait()
        assert sorted(C1) == sorted(C2), (case, is_row, line, idx)
