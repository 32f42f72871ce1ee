"""Second cross-backend property wave: masked/accumulated mxv and vxm,
vector assign/extract, eWiseUnion consistency, and FP64 domains (approx
comparison — the reference reduces in the same order, so results are
bit-equal anyway; approx guards future kernel reorderings)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro as grb
from repro.algebra import predefined
from repro.ops import binary
from repro.reference import (
    RefMatrix,
    RefVector,
    ref_assign_scalar_vector,
    ref_assign_vector,
    ref_ewise_add,
    ref_extract_vector,
    ref_mxv,
    ref_vxm,
)

from tests.conftest import (
    assert_matrix_equals_ref,
    assert_vector_equals_ref,
    index_list,
)

SETTINGS = dict(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def vec_scene(draw, size=8, domain=grb.INT64):
    """(grb, ref) twins for a vector, plus an optional bool mask pair."""

    def mk(dom):
        cells = draw(
            st.lists(
                st.tuples(st.integers(0, size - 1), st.integers(-4, 4)),
                max_size=size,
            )
        )
        if dom.is_bool:
            content = {i: bool(v % 2) for i, v in cells}
        else:
            content = {i: np.int64(v) for i, v in cells}
        v = grb.Vector(dom, size)
        if content:
            idx, vals = zip(*content.items())
            v.build(idx, list(vals))
        return v, RefVector(dom, size, content)

    w = mk(domain)
    use_mask = draw(st.booleans())
    mask = mk(grb.BOOL) if use_mask else (None, None)
    flags = {
        "replace": draw(st.booleans()) if use_mask else False,
        "mask_comp": draw(st.booleans()) if use_mask else False,
        "mask_struct": draw(st.booleans()) if use_mask else False,
    }
    accum = draw(st.sampled_from([None, binary.PLUS[grb.INT64]]))
    return w, mask, flags, accum


@st.composite
def mat_pair(draw, nrows, ncols, domain=grb.INT64):
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
    return d


class TestMaskedVectorOps:
    @given(data=st.data())
    @settings(**SETTINGS)
    def test_mxv_full_surface(self, data):
        A, Ar = data.draw(mat_pair(8, 8))
        w, (mg, mr), flags, accum = data.draw(vec_scene())
        (u, ur), _, _, _ = data.draw(vec_scene())
        t0 = data.draw(st.booleans())
        flags = dict(flags, tran0=t0)
        s = predefined.PLUS_TIMES[grb.INT64]
        grb.mxv(w[0], mg, accum, s, A, u, _desc(flags))
        ref_mxv(w[1], mr, accum, s, Ar, ur, **flags)
        assert_vector_equals_ref(w[0], w[1])

    @given(data=st.data())
    @settings(**SETTINGS)
    def test_vxm_full_surface(self, data):
        A, Ar = data.draw(mat_pair(8, 8))
        w, (mg, mr), flags, accum = data.draw(vec_scene())
        (u, ur), _, _, _ = data.draw(vec_scene())
        s = predefined.MIN_PLUS[grb.INT64]
        d = _desc(flags)
        grb.vxm(w[0], mg, accum, s, u, A, d)
        ref_vxm(w[1], mr, accum, s, ur, Ar, **flags)
        assert_vector_equals_ref(w[0], w[1])

    @given(data=st.data())
    @settings(**SETTINGS)
    def test_vector_extract(self, data):
        (u, ur), _, _, _ = data.draw(vec_scene())
        idx = data.draw(index_list(8))
        nidx = len(idx)
        w = grb.Vector(grb.INT64, nidx)
        wr = RefVector(grb.INT64, nidx)
        grb.vector_extract(w, None, None, u, idx)
        ref_extract_vector(wr, None, None, ur, idx)
        assert_vector_equals_ref(w, wr)

    @given(data=st.data())
    @settings(**SETTINGS)
    def test_vector_assign(self, data):
        w, (mg, mr), flags, accum = data.draw(vec_scene())
        idx = data.draw(index_list(8, unique=True))
        ucells = data.draw(
            st.lists(
                st.tuples(st.integers(0, len(idx) - 1), st.integers(-4, 4)),
                max_size=len(idx),
            )
        )
        ucontent = {i: np.int64(v) for i, v in ucells}
        u = grb.Vector(grb.INT64, len(idx))
        if ucontent:
            ki, kv = zip(*ucontent.items())
            u.build(ki, kv)
        ur = RefVector(grb.INT64, len(idx), ucontent)
        grb.vector_assign(w[0], mg, accum, u, idx, _desc(flags))
        ref_assign_vector(w[1], mr, accum, ur, idx, **flags)
        assert_vector_equals_ref(w[0], w[1])

    @given(data=st.data(), value=st.integers(-5, 5))
    @settings(**SETTINGS)
    def test_vector_assign_scalar(self, data, value):
        w, (mg, mr), flags, accum = data.draw(vec_scene())
        idx = data.draw(index_list(8, unique=True))
        grb.vector_assign_scalar(w[0], mg, accum, value, idx, _desc(flags))
        ref_assign_scalar_vector(
            w[1], mr, accum, np.int64(value), idx, **flags
        )
        assert_vector_equals_ref(w[0], w[1])


class TestEWiseUnionConsistency:
    @given(data=st.data())
    @settings(**SETTINGS)
    def test_union_with_identity_fills_equals_add_for_plus(self, data):
        # fills equal to the monoid identity make eWiseUnion == eWiseAdd
        A, _ = data.draw(mat_pair(6, 6))
        B, _ = data.draw(mat_pair(6, 6))
        C1 = grb.Matrix(grb.INT64, 6, 6)
        C2 = grb.Matrix(grb.INT64, 6, 6)
        grb.ewise_union(C1, None, None, binary.PLUS[grb.INT64], A, 0, B, 0)
        grb.ewise_add(C2, None, None, binary.PLUS[grb.INT64], A, B)
        assert {(i, j): int(v) for i, j, v in C1} == {
            (i, j): int(v) for i, j, v in C2
        }

    @given(data=st.data())
    @settings(**SETTINGS)
    def test_union_pattern_is_union(self, data):
        A, _ = data.draw(mat_pair(6, 6))
        B, _ = data.draw(mat_pair(6, 6))
        C = grb.Matrix(grb.INT64, 6, 6)
        grb.ewise_union(C, None, None, binary.MINUS[grb.INT64], A, 1, B, 1)
        pa = {(i, j) for i, j, _ in A}
        pb = {(i, j) for i, j, _ in B}
        assert {(i, j) for i, j, _ in C} == pa | pb


class TestFloatDomainsCrossBackend:
    @given(data=st.data())
    @settings(**SETTINGS)
    def test_fp64_mxm(self, data):
        n = 6
        cells_a = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                          st.integers(-8, 8)),
                max_size=n * n,
            )
        )
        content_a = {(i, j): np.float64(v) / 2 for i, j, v in cells_a}
        A = grb.Matrix(grb.FP64, n, n)
        if content_a:
            r, c, v = zip(*[(i, j, x) for (i, j), x in content_a.items()])
            A.build(r, c, v)
        Ar = RefMatrix(grb.FP64, n, n, content_a)
        C = grb.Matrix(grb.FP64, n, n)
        Cr = RefMatrix(grb.FP64, n, n)
        s = predefined.PLUS_TIMES[grb.FP64]
        grb.mxm(C, None, None, s, A, A)
        from repro.reference import ref_mxm

        ref_mxm(Cr, None, None, s, Ar, Ar)
        assert_matrix_equals_ref(C, Cr, approx=True)

    @given(data=st.data())
    @settings(**SETTINGS)
    def test_bool_lor_land_mxm(self, data):
        n = 6
        cells = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                          st.booleans()),
                max_size=n * n,
            )
        )
        content = {(i, j): np.bool_(v) for i, j, v in cells}
        A = grb.Matrix(grb.BOOL, n, n)
        if content:
            r, c, v = zip(*[(i, j, x) for (i, j), x in content.items()])
            A.build(r, c, list(v))
        Ar = RefMatrix(grb.BOOL, n, n, content)
        C = grb.Matrix(grb.BOOL, n, n)
        Cr = RefMatrix(grb.BOOL, n, n)
        s = predefined.LOR_LAND[grb.BOOL]
        grb.mxm(C, None, None, s, A, A)
        from repro.reference import ref_mxm

        ref_mxm(Cr, None, None, s, Ar, Ar)
        assert_matrix_equals_ref(C, Cr)
