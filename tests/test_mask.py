"""Mask semantics in isolation (paper section III-C)."""

import tracemalloc

import numpy as np
import pytest

import repro as grb
from repro.containers.mask import MaskView, build_mask_view
from repro.ops import binary, unary


class TestMaskView:
    def test_value_mask_keeps_true_only(self):
        m = grb.Vector.from_coo(grb.INT32, 6, [0, 2, 4], [0, 5, -1])
        view = build_mask_view(m, complemented=False, structural=False)
        # stored-and-true: index 0 stores 0 (false)
        assert view.pattern.tolist() == [2, 4]

    def test_structural_mask_keeps_all_stored(self):
        m = grb.Vector.from_coo(grb.INT32, 6, [0, 2, 4], [0, 5, -1])
        view = build_mask_view(m, complemented=False, structural=True)
        assert view.pattern.tolist() == [0, 2, 4]

    def test_complement_is_lazy(self):
        m = grb.Vector.from_coo(grb.BOOL, 10**6, [3], [True])
        view = build_mask_view(m, complemented=True, structural=False)
        # the million-element complement is never materialized
        assert len(view.pattern) == 1
        keys = np.array([2, 3, 4], dtype=np.int64)
        # nor is a table over the space: a lookup costs O(keys + pattern)
        wide = grb.Vector.from_coo(grb.BOOL, 10**6, [3, 10**6 - 1], [1, 1])
        wide_view = build_mask_view(wide, complemented=True, structural=False)
        tracemalloc.start()
        try:
            allowed = view.allows(keys)
            wide_allowed = wide_view.allows(keys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert allowed.tolist() == [True, False, True]
        assert wide_allowed.tolist() == [True, False, True]
        assert peak < 10**4

    def test_complement_definition(self):
        # L(¬m) = {i : 0 <= i < N, i not in L(m)} — section III-C
        m = grb.Vector.from_coo(grb.BOOL, 5, [1, 3], [True, True])
        view = build_mask_view(m, complemented=True, structural=False)
        all_keys = np.arange(5, dtype=np.int64)
        assert all_keys[view.allows(all_keys)].tolist() == [0, 2, 4]

    def test_count_allowed(self):
        view = MaskView(np.array([1, 2, 3], dtype=np.int64), complemented=False)
        assert view.count_allowed_in(10) == 3
        cview = MaskView(np.array([1, 2, 3], dtype=np.int64), complemented=True)
        assert cview.count_allowed_in(10) == 7

    def test_no_mask_is_none(self):
        assert build_mask_view(None, False, False) is None


class TestMaskThroughOperations:
    def test_double_complement_is_identity(self, rng):
        from tests.conftest import random_matrix

        A = random_matrix(rng, 6, 6, 0.5)
        M = random_matrix(rng, 6, 6, 0.4, domain=grb.BOOL)
        s = grb.semiring("GrB_PLUS_TIMES_SEMIRING_INT64")
        # complement applied by flipping which side we write: mask + SCMP
        # twice partitions exactly (already covered), here: SCMP of SCMP
        # via apply on an empty intermediate equals plain mask
        C1 = grb.Matrix(grb.INT64, 6, 6)
        grb.mxm(C1, M, None, s, A, A, grb.DESC_R)
        # build explicit complement pattern as a BOOL matrix, complement it
        rows, cols, vals = M.extract_tuples()
        truthy = vals.astype(bool)
        comp_pat = {
            (i, j)
            for i in range(6)
            for j in range(6)
            if (i, j) not in set(zip(rows[truthy].tolist(), cols[truthy].tolist()))
        }
        Mc = grb.Matrix(grb.BOOL, 6, 6)
        if comp_pat:
            ri, ci = zip(*comp_pat)
            Mc.build(ri, ci, [True] * len(comp_pat))
        C2 = grb.Matrix(grb.INT64, 6, 6)
        grb.mxm(C2, Mc, None, s, A, A, grb.DESC_RSC)  # ¬(¬M) == M
        assert {(i, j): int(v) for i, j, v in C1} == {
            (i, j): int(v) for i, j, v in C2
        }

    def test_empty_mask_blocks_everything(self, rng):
        from tests.conftest import random_matrix

        A = random_matrix(rng, 4, 4, 0.6)
        M = grb.Matrix(grb.BOOL, 4, 4)  # no stored elements
        C = grb.Matrix.from_coo(grb.INT64, 4, 4, [0], [0], [9])
        grb.mxm(C, M, None, grb.semiring("GrB_PLUS_TIMES_SEMIRING_INT64"), A, A)
        # merge mode: nothing written, old C intact
        assert {(i, j): int(v) for i, j, v in C} == {(0, 0): 9}

    def test_empty_mask_complement_allows_everything(self, rng):
        from tests.conftest import random_matrix

        A = random_matrix(rng, 4, 4, 0.6)
        M = grb.Matrix(grb.BOOL, 4, 4)
        C1 = grb.Matrix(grb.INT64, 4, 4)
        C2 = grb.Matrix(grb.INT64, 4, 4)
        s = grb.semiring("GrB_PLUS_TIMES_SEMIRING_INT64")
        grb.mxm(C1, M, None, s, A, A, grb.DESC_RSC)
        grb.mxm(C2, None, None, s, A, A)
        assert {(i, j): int(v) for i, j, v in C1} == {
            (i, j): int(v) for i, j, v in C2
        }

    def test_fig3_mask_prunes_discovered(self):
        # the BC forward sweep's central trick: numsp as complemented mask
        # prunes already-discovered vertices from the next frontier
        A = grb.Matrix.from_coo(
            grb.INT32, 3, 3, [0, 1, 1], [1, 0, 2], [1, 1, 1]
        )
        numsp = grb.Matrix.from_coo(grb.INT32, 3, 1, [0, 1], [0, 0], [1, 1])
        frontier = grb.Matrix.from_coo(grb.INT32, 3, 1, [1], [0], [1])
        grb.mxm(
            frontier, numsp, None,
            grb.semiring("GrB_PLUS_TIMES_SEMIRING_INT32"),
            A, frontier, grb.DESC_TSR,
        )
        # Aᵀ f reaches {0, 2}, but 0 is already in numsp: only 2 survives
        assert {(i, j) for i, j, _ in frontier} == {(2, 0)}


def _one_key_scene(rng):
    """Operands for the keys-tested check: 8×8 INT64, B has one entry per
    column, so every SpGEMM product lands in its own cell and the kernel's
    candidate keys are exactly T's."""
    from tests.conftest import random_matrix, random_vector

    n = 8
    return dict(
        A=random_matrix(rng, n, n, 0.4),
        B=grb.Matrix.from_coo(
            grb.INT64, n, n, rng.permutation(n), np.arange(n),
            rng.integers(1, 5, n),
        ),
        E=random_matrix(rng, n, n, 0.4),
        S=random_matrix(rng, 3, 4, 0.6),
        u=random_vector(rng, n, 0.5),
        us=random_vector(rng, 4, 0.8),
        M=random_matrix(rng, n, n, 0.5, domain=grb.BOOL),
        m=random_vector(rng, n, 0.5, domain=grb.BOOL),
        C=random_matrix(rng, n, n, 0.4),
        w=random_vector(rng, n, 0.5),
    )


_PT = grb.semiring("GrB_PLUS_TIMES_SEMIRING_INT64")
_SCMP = grb.Descriptor().set(grb.MASK, grb.SCMP)

#: op class -> (output kind, call(out, mask, accum, scene)); every call is
#: masked and in merge mode, so with an accumulator it needs no C test
_KEY_CALLS = {
    "mxm": ("C", lambda o, k, acc, s: grb.mxm(o, k, acc, _PT, s["A"], s["B"])),
    # complemented: no mask rows to select, so the row path cuts T once
    "mxv": ("w", lambda o, k, acc, s: grb.mxv(
        o, k, acc, _PT, s["A"], s["u"], _SCMP)),
    "vxm": ("w", lambda o, k, acc, s: grb.vxm(
        o, k, acc, _PT, s["u"], s["A"], _SCMP)),
    "eWiseAdd": ("C", lambda o, k, acc, s: grb.eWiseAdd(
        o, k, acc, binary.PLUS[grb.INT64], s["A"], s["E"])),
    "apply": ("C", lambda o, k, acc, s: grb.apply(
        o, k, acc, unary.AINV[grb.INT64], s["A"])),
    "transpose": ("C", lambda o, k, acc, s: grb.transpose(o, k, acc, s["A"])),
    "reduce": ("w", lambda o, k, acc, s: grb.reduce(
        o, k, acc, grb.monoid("GrB_PLUS_MONOID_INT64"), s["A"])),
    "extract": ("C", lambda o, k, acc, s: grb.matrix_extract(
        o, k, acc, s["A"], grb.ALL, grb.ALL)),
    "matrix_assign": ("C", lambda o, k, acc, s: grb.matrix_assign(
        o, k, acc, s["S"], [1, 4, 6], [0, 2, 5, 7])),
    "row_assign": ("C", lambda o, k, acc, s: grb.row_assign(
        o, None if k is None else s["m"], acc, s["us"], 2, [7, 0, 3, 5])),
}


@pytest.mark.parametrize("name", list(_KEY_CALLS))
def test_each_key_meets_the_mask_once(name, rng, monkeypatch):
    """Every source hands T to the write step already inside the mask, so
    a masked, merge-mode, accumulating call tests each key once: at most
    the kernel's |T| plus C's stored keys."""
    import importlib

    import repro.operations.common as op_common

    # the package re-exports the assign *function* under the module's name
    assign_mod = importlib.import_module("repro.operations.assign")

    kind, call = _KEY_CALLS[name]
    s = _one_key_scene(rng)
    mask = s["M"] if kind == "C" else s["m"]
    # |kernel T|: the same call with no mask and no accumulator, into an
    # empty output
    empty = (grb.Matrix(grb.INT64, 8, 8) if kind == "C"
             else grb.Vector(grb.INT64, 8))
    call(empty, None, None, s)
    t_size, c_size = empty.nvals(), s[kind].nvals()
    if name == "row_assign":  # the step's C is the assigned row
        c_size = int((s["C"].extract_tuples()[0] == 2).sum())

    real_step, real_allows = op_common.write_step, MaskView.allows
    steps, tested = [], []

    def step(c_keys, c_vals, c_type, t_keys, t_vals, t_type, accum,
             mask_view, replace, outside=None):
        steps.append((t_keys, mask_view))
        return real_step(c_keys, c_vals, c_type, t_keys, t_vals, t_type,
                         accum, mask_view, replace, outside)

    def allows(self, keys):
        tested.append(len(keys))
        return real_allows(self, keys)

    monkeypatch.setattr(op_common, "write_step", step)
    monkeypatch.setattr(assign_mod, "write_step", step)
    monkeypatch.setattr(MaskView, "allows", allows)
    call(s[kind], mask, binary.PLUS[grb.INT64], s)
    monkeypatch.setattr(MaskView, "allows", real_allows)

    (t_keys, mask_view), = steps
    assert real_allows(mask_view, t_keys).all()
    assert 0 < sum(tested) <= t_size + c_size
