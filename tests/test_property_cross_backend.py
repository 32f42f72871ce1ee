"""Property-based cross-backend validation.

Every operation, with randomized inputs, masks, accumulators, and
descriptor flags, must produce content identical to the spec-literal
reference implementation (:mod:`repro.reference`).  This is the central
correctness argument for the optimized kernels.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro as grb
from repro.algebra import predefined
from repro.ops import binary
from repro.reference import (
    RefMatrix,
    RefVector,
    ref_apply,
    ref_assign_scalar_matrix,
    ref_ewise_add,
    ref_ewise_mult,
    ref_extract_matrix,
    ref_kronecker,
    ref_mxm,
    ref_mxv,
    ref_reduce_rows,
    ref_select,
    ref_transpose,
    ref_vxm,
)

from tests.conftest import (
    assert_matrix_equals_ref,
    assert_vector_equals_ref,
    index_list,
)

SETTINGS = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def sparse_matrix(draw, max_dim=8, domain=grb.INT64):
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    cells = draw(
        st.lists(
            st.tuples(
                st.integers(0, nrows - 1),
                st.integers(0, ncols - 1),
                st.integers(-4, 4),
            ),
            max_size=nrows * ncols,
        )
    )
    content = {(i, j): np.int64(v) for i, j, v in cells}
    M = grb.Matrix(domain, nrows, ncols)
    if content:
        rows, cols, vals = zip(*[(i, j, v) for (i, j), v in content.items()])
        M.build(rows, cols, vals)
    return M, RefMatrix(domain, nrows, ncols, content)


@st.composite
def sparse_vector(draw, size, domain=grb.INT64):
    cells = draw(
        st.lists(
            st.tuples(st.integers(0, size - 1), st.integers(-4, 4)),
            max_size=size,
        )
    )
    content = {i: np.int64(v) for i, v in cells}
    v = grb.Vector(domain, size)
    if content:
        idx, vals = zip(*content.items())
        v.build(idx, vals)
    return v, RefVector(domain, size, content)


@st.composite
def matrix_op_scene(draw, square=False, max_dim=7):
    """(C, A, B, mask, flags) consistent for same-shape binary ops."""
    nrows = draw(st.integers(1, max_dim))
    ncols = nrows if square else draw(st.integers(1, max_dim))

    def mk(domain=grb.INT64):
        cells = draw(
            st.lists(
                st.tuples(
                    st.integers(0, nrows - 1),
                    st.integers(0, ncols - 1),
                    st.integers(-4, 4),
                ),
                max_size=nrows * ncols,
            )
        )
        content = {(i, j): np.int64(v) for i, j, v in cells}
        M = grb.Matrix(domain, nrows, ncols)
        if content:
            rows, cols, vals = zip(*[(i, j, v) for (i, j), v in content.items()])
            M.build(rows, cols, vals)
        return M, RefMatrix(domain, nrows, ncols, content)

    C = mk()
    A = mk()
    B = mk()
    use_mask = draw(st.booleans())
    mask = mk(grb.BOOL) if use_mask else (None, None)
    if use_mask:
        # give the bool mask bool values
        Mg, Mr = mask
        Mr.content = {k: bool(v % 2) for k, v in Mr.content.items()}
        Mg.clear()
        if Mr.content:
            rows, cols = zip(*Mr.content.keys())
            Mg.build(rows, cols, list(Mr.content.values()))
        mask = (Mg, Mr)
    flags = {
        "replace": draw(st.booleans()) if use_mask else False,
        "mask_comp": draw(st.booleans()) if use_mask else False,
        "mask_struct": draw(st.booleans()) if use_mask else False,
    }
    accum = draw(st.sampled_from([None, "plus", "minus"]))
    accum_op = {
        None: None,
        "plus": binary.PLUS[grb.INT64],
        "minus": binary.MINUS[grb.INT64],
    }[accum]
    return C, A, B, mask, flags, accum_op


def _desc(flags):
    d = grb.Descriptor()
    if flags.get("replace"):
        d.set(grb.OUTP, grb.REPLACE)
    if flags.get("mask_comp"):
        d.set(grb.MASK, grb.SCMP)
    if flags.get("mask_struct"):
        d.set(grb.MASK, grb.STRUCTURE)
    if flags.get("tran0"):
        d.set(grb.INP0, grb.TRAN)
    if flags.get("tran1"):
        d.set(grb.INP1, grb.TRAN)
    return d


class TestEWiseCrossBackend:
    @given(scene=matrix_op_scene())
    @settings(**SETTINGS)
    def test_ewise_add(self, fresh_context, scene):
        C, A, B, (mg, mr), flags, accum = scene
        grb.ewise_add(C[0], mg, accum, binary.PLUS[grb.INT64], A[0], B[0], _desc(flags))
        ref_ewise_add(C[1], mr, accum, binary.PLUS[grb.INT64], A[1], B[1], **flags)
        assert_matrix_equals_ref(C[0], C[1])

    @given(scene=matrix_op_scene())
    @settings(**SETTINGS)
    def test_ewise_mult(self, fresh_context, scene):
        C, A, B, (mg, mr), flags, accum = scene
        grb.ewise_mult(C[0], mg, accum, binary.TIMES[grb.INT64], A[0], B[0], _desc(flags))
        ref_ewise_mult(C[1], mr, accum, binary.TIMES[grb.INT64], A[1], B[1], **flags)
        assert_matrix_equals_ref(C[0], C[1])

    @given(scene=matrix_op_scene(square=True))
    @settings(**SETTINGS)
    def test_ewise_add_transposed(self, fresh_context, scene):
        C, A, B, (mg, mr), flags, accum = scene
        flags = dict(flags, tran0=True)
        grb.ewise_add(C[0], mg, accum, binary.MIN[grb.INT64], A[0], B[0], _desc(flags))
        ref_ewise_add(C[1], mr, accum, binary.MIN[grb.INT64], A[1], B[1], **flags)
        assert_matrix_equals_ref(C[0], C[1])


class TestMxmCrossBackend:
    @given(scene=matrix_op_scene(square=True))
    @settings(**SETTINGS)
    def test_mxm_plus_times(self, fresh_context, scene):
        C, A, B, (mg, mr), flags, accum = scene
        s = predefined.PLUS_TIMES[grb.INT64]
        grb.mxm(C[0], mg, accum, s, A[0], B[0], _desc(flags))
        ref_mxm(C[1], mr, accum, s, A[1], B[1], **flags)
        assert_matrix_equals_ref(C[0], C[1])

    @given(scene=matrix_op_scene(square=True), t0=st.booleans(), t1=st.booleans())
    @settings(**SETTINGS)
    def test_mxm_transposes(self, fresh_context, scene, t0, t1):
        C, A, B, (mg, mr), flags, accum = scene
        flags = dict(flags, tran0=t0, tran1=t1)
        s = predefined.MIN_PLUS[grb.INT64]
        grb.mxm(C[0], mg, accum, s, A[0], B[0], _desc(flags))
        ref_mxm(C[1], mr, accum, s, A[1], B[1], **flags)
        assert_matrix_equals_ref(C[0], C[1])

    @given(scene=matrix_op_scene(square=True))
    @settings(**SETTINGS)
    def test_mxm_max_second(self, fresh_context, scene):
        C, A, B, (mg, mr), flags, accum = scene
        s = predefined.MAX_SECOND[grb.INT64]
        grb.mxm(C[0], mg, accum, s, A[0], B[0], _desc(flags))
        ref_mxm(C[1], mr, accum, s, A[1], B[1], **flags)
        assert_matrix_equals_ref(C[0], C[1])


class TestMxvVxmCrossBackend:
    @given(data=st.data())
    @settings(**SETTINGS)
    def test_mxv(self, fresh_context, data):
        A, Ar = data.draw(sparse_matrix())
        u, ur = data.draw(sparse_vector(A.ncols))
        w, wr = data.draw(sparse_vector(A.nrows))
        s = predefined.PLUS_TIMES[grb.INT64]
        grb.mxv(w, None, None, s, A, u)
        ref_mxv(wr, None, None, s, Ar, ur)
        assert_vector_equals_ref(w, wr)

    @given(data=st.data())
    @settings(**SETTINGS)
    def test_vxm(self, fresh_context, data):
        A, Ar = data.draw(sparse_matrix())
        u, ur = data.draw(sparse_vector(A.nrows))
        w, wr = data.draw(sparse_vector(A.ncols))
        s = predefined.PLUS_TIMES[grb.INT64]
        grb.vxm(w, None, None, s, u, A)
        ref_vxm(wr, None, None, s, ur, Ar)
        assert_vector_equals_ref(w, wr)


class TestUnaryCrossBackend:
    @given(scene=matrix_op_scene())
    @settings(**SETTINGS)
    def test_apply(self, fresh_context, scene):
        C, A, _, (mg, mr), flags, accum = scene
        op = grb.ops.unary.AINV[grb.INT64]
        grb.apply(C[0], mg, accum, op, A[0], _desc(flags))
        ref_apply(C[1], mr, accum, op, A[1], **flags)
        assert_matrix_equals_ref(C[0], C[1])

    @given(scene=matrix_op_scene(square=True), k=st.integers(-3, 3))
    @settings(**SETTINGS)
    def test_select_tril(self, fresh_context, scene, k):
        C, A, _, (mg, mr), flags, accum = scene
        grb.select(C[0], mg, accum, grb.TRIL, A[0], k, _desc(flags))
        ref_select(C[1], mr, accum, grb.TRIL, A[1], k, **flags)
        assert_matrix_equals_ref(C[0], C[1])

    @given(scene=matrix_op_scene(square=True))
    @settings(**SETTINGS)
    def test_transpose(self, fresh_context, scene):
        C, A, _, (mg, mr), flags, accum = scene
        grb.transpose(C[0], mg, accum, A[0], _desc(flags))
        ref_transpose(C[1], mr, accum, A[1], **flags)
        assert_matrix_equals_ref(C[0], C[1])


class TestReduceExtractAssignCrossBackend:
    @given(data=st.data())
    @settings(**SETTINGS)
    def test_reduce_rows(self, fresh_context, data):
        A, Ar = data.draw(sparse_matrix())
        w, wr = data.draw(sparse_vector(A.nrows))
        m = grb.monoid("GrB_PLUS_MONOID_INT64")
        grb.reduce_to_vector(w, None, None, m, A)
        ref_reduce_rows(wr, None, None, m, Ar)
        assert_vector_equals_ref(w, wr)

    @given(data=st.data())
    @settings(**SETTINGS)
    def test_extract(self, fresh_context, data):
        A, Ar = data.draw(sparse_matrix())
        rows = data.draw(index_list(A.nrows))
        cols = data.draw(index_list(A.ncols))
        ni, nj = len(rows), len(cols)
        C = grb.Matrix(grb.INT64, ni, nj)
        Cr = RefMatrix(grb.INT64, ni, nj)
        grb.matrix_extract(C, None, None, A, rows, cols)
        ref_extract_matrix(Cr, None, None, Ar, rows, cols)
        assert_matrix_equals_ref(C, Cr)

    @given(scene=matrix_op_scene(), value=st.integers(-5, 5), data=st.data())
    @settings(**SETTINGS)
    def test_assign_scalar(self, fresh_context, scene, value, data):
        C, _, _, (mg, mr), flags, accum = scene
        nrows, ncols = C[0].shape
        rows = data.draw(index_list(nrows, unique=True))
        cols = data.draw(index_list(ncols, unique=True))
        grb.matrix_assign_scalar(
            C[0], mg, accum, value, rows, cols, _desc(flags)
        )
        ref_assign_scalar_matrix(
            C[1], mr, accum, np.int64(value), rows, cols, **flags
        )
        assert_matrix_equals_ref(C[0], C[1])

    @given(data=st.data())
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_kronecker(self, fresh_context, data):
        A, Ar = data.draw(sparse_matrix(max_dim=4))
        B, Br = data.draw(sparse_matrix(max_dim=4))
        C = grb.Matrix(grb.INT64, A.nrows * B.nrows, A.ncols * B.ncols)
        Cr = RefMatrix(grb.INT64, C.nrows, C.ncols)
        op = binary.TIMES[grb.INT64]
        grb.kronecker(C, None, None, op, A, B)
        ref_kronecker(Cr, None, None, op, Ar, Br)
        assert_matrix_equals_ref(C, Cr)
