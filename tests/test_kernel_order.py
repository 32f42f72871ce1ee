"""The kernels keep the order their inputs already have.

Three places sort without a global int64 ``argsort``: SpGEMM orders its
row-major expansion one block of 2**16 output cells at a time, the CSC
view sorts column ids alone, and ``mxv``/``vxm`` may walk the cached
transpose view instead of intersecting every row.  Each must produce the
very permutation — hence the very fold order and the very bytes — the
global stable sort produced.  Values are compared as raw bytes, so a
signed zero that changed sign would count as a difference.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro as grb
from repro import obs, parallel
from repro._sparseutil import stable_order
from repro.containers.formats import transpose_permutation
from repro.operations import _kernels

# --------------------------------------------------------------- helpers


def _row_major_stream(rng, ncols, rows, per_row):
    """Keys of an expansion: rows nondecreasing, columns in any order and
    repeated within a row, as SpGEMM emits them."""
    rows = np.repeat(np.asarray(rows, dtype=np.int64), per_row)
    cols = rng.integers(0, ncols, len(rows))
    return rows * np.int64(ncols) + cols, rows


def _stable(keys):
    return np.argsort(keys, kind="stable")


def _same_bytes(want, got):
    """Two ``extract_tuples()`` results are identical, value bytes too."""
    assert len(want) == len(got)
    for w, g in zip(want, got):
        w, g = np.asarray(w), np.asarray(g)
        assert w.dtype == g.dtype
        if w.dtype == object:
            assert w.tolist() == g.tolist()
        else:
            assert w.tobytes() == g.tobytes()


def _signed_values(rng, dom, n):
    if dom.is_udt:
        words = [f"w{int(x)}" for x in rng.integers(0, 9, n)]
        return np.array(words, dtype=object)
    if dom.is_bool:
        return rng.random(n) < 0.7
    if dom.np_dtype.kind == "f":
        vals = rng.choice([-0.0, 0.0, 1.5, -2.25, 3e-3, 7.0], n)
        return (vals * rng.uniform(0.5, 2.0, n)).astype(dom.np_dtype)
    hi = 4 if dom.np_dtype.kind == "u" else 3
    return rng.integers(-3 if dom.np_dtype.kind == "i" else 0, hi, n).astype(
        dom.np_dtype
    )


def _matrix(rng, dom, nrows, ncols, nnz):
    keys = np.unique(rng.integers(0, nrows * ncols, nnz))
    return grb.Matrix.from_coo(
        dom, nrows, ncols, keys // ncols, keys % ncols,
        _signed_values(rng, dom, len(keys)),
    )


def _vector(rng, dom, n, k):
    idx = np.sort(rng.choice(n, size=k, replace=False))
    return grb.Vector.from_coo(dom, n, idx, _signed_values(rng, dom, k))


_WORD = grb.type_new("Word", str)
_CONCAT = grb.binary_op_new(
    lambda x, y: x + y, _WORD, _WORD, _WORD, name="WORD_CONCAT",
    associative=True,
)
_PAIR = grb.binary_op_new(
    lambda x, y: f"({x}*{y})", _WORD, _WORD, _WORD, name="WORD_PAIR"
)
#: a non-commutative ⊕: any change of fold order changes the result
_WORD_SR = grb.semiring_new(grb.monoid_new(_CONCAT, ""), _PAIR)

SEMIRINGS = [
    ("plus_times_fp64", grb.FP64, grb.PLUS_TIMES[grb.FP64]),
    ("plus_times_fp32", grb.FP32, grb.PLUS_TIMES[grb.FP32]),
    ("plus_times_int8", grb.INT8, grb.PLUS_TIMES[grb.INT8]),
    ("plus_times_uint16", grb.UINT16, grb.PLUS_TIMES[grb.UINT16]),
    ("min_plus_fp64", grb.FP64, grb.MIN_PLUS[grb.FP64]),
    ("max_times_int32", grb.INT32, grb.MAX_TIMES[grb.INT32]),
    ("lor_land_bool", grb.BOOL, grb.LOR_LAND[grb.BOOL]),
    ("udt_concat", _WORD, _WORD_SR),
]
_SR_IDS = [s[0] for s in SEMIRINGS]


# ------------------------------------------------- the block-local sort


@pytest.mark.parametrize("ncols", [1, 255, 65535, 65536, 65537])
def test_block_sort_is_the_stable_argsort(ncols, monkeypatch):
    """Full call, a window with lo > 0, mask survivors, empty blocks."""
    rng = np.random.default_rng(ncols)
    per = max(1, (1 << 16) // ncols)
    dense = max(7, 400 // per)  # products per row: ≥ 400 per block
    streams = {
        "full": (range(0, 6 * per + 3), dense),
        "window": (range(3 * per + 1, 5 * per + 2), dense),
        # whole blocks without a single product between two busy rows
        "empty_blocks": ([1, 1, 2, 9 * per, 9 * per + 1, 40 * per], 2000),
    }
    blocks = []
    monkeypatch.setattr(
        _kernels, "stable_order",
        lambda ids, bound: blocks.append(len(ids)) or stable_order(ids, bound),
    )
    for label, (rows, per_row) in streams.items():
        keys, row_ids = _row_major_stream(rng, ncols, rows, per_row)
        got = _kernels._row_major_order(keys, row_ids, ncols)
        assert np.array_equal(got, _stable(keys)), label
        # mask push-down keeps an arbitrary subsequence
        keep = rng.random(len(keys)) < 0.5
        keep[0] = True
        got = _kernels._row_major_order(keys[keep], row_ids[keep], ncols)
        assert np.array_equal(got, _stable(keys[keep])), label + "+mask"
    # every stream took the block path, except past the 2**16-column bound
    assert (len(blocks) > 2 * len(streams)) == (ncols <= 1 << 16)


def test_block_sort_of_one_product():
    """Too few products per block: the global sort answers."""
    keys = np.array([5 * 300 + 7], dtype=np.int64)
    got = _kernels._row_major_order(keys, np.array([5]), 300)
    assert got.tolist() == [0]


# --------------------------------------------------------- SpGEMM bytes


def _old_order(keys, rows, ncols):
    return np.argsort(keys, kind="stable")


def _products(rng, dom, sr):
    """Products over 3 000 output columns, so a call spans several sort
    blocks (21 rows each) and a thread's window starts inside one."""
    n, wide = 60, 3000
    A = _matrix(rng, dom, n, n, 700)
    B = _matrix(rng, dom, n, wide, 3000)
    Bt = _matrix(rng, dom, wide, n, 3000)
    M = _matrix(rng, grb.BOOL, n, wide, 40_000)
    # hypersparse, wider than one sort block: the fallback
    W = _matrix(rng, dom, n, 70_000, 500)
    out = []
    for desc, mask, rhs in (
        (None, None, B), (grb.DESC_T1, None, Bt), (None, M, B),
        (None, None, W),
    ):
        C = grb.Matrix(dom, n, wide if rhs is Bt else rhs.ncols)
        grb.mxm(C, mask, None, sr, A, rhs, desc)
        out.append(C.extract_tuples())
    return out


def _configure(where):
    if where == "threads":
        parallel.set_num_threads(2)
    elif where == "processes":
        # the 2-worker pool runs the block sort over row windows
        parallel.set_backend("processes")
        parallel.set_shard_workers(2)
    parallel.set_parallel_threshold(0)


@pytest.mark.parametrize("where", ["serial", "threads", "processes"])
@pytest.mark.parametrize("name,dom,sr", SEMIRINGS, ids=_SR_IDS)
def test_spgemm_block_sort_equals_global_sort(name, dom, sr, where,
                                              monkeypatch):
    """Against the old kernel: the same expansion under one global stable
    argsort, run serially in this process."""
    want_rng, got_rng = np.random.default_rng(7), np.random.default_rng(7)
    with monkeypatch.context() as m:
        m.setattr(_kernels, "_row_major_order", _old_order)
        want = _products(want_rng, dom, sr)
    _configure(where)
    try:
        got = _products(got_rng, dom, sr)
    finally:
        parallel.set_num_threads(1)
        parallel.set_backend("threads")
        parallel.set_parallel_threshold(parallel.config.DEFAULT_THRESHOLD)
    for w, g in zip(want, got):
        _same_bytes(w, g)


# ------------------------------------------------------ the column walk

#: mask kind -> the MASK descriptor value (None: no mask at all)
_MASKS = {
    "none": None,
    "value": (),
    "structural": (grb.STRUCTURE,),
    "complemented": (grb.SCMP,),
}


def _spmv_all(A, u, m, sr, dom, n):
    """mxv and vxm under every mask kind and transpose descriptor."""
    out = []
    for mask_desc in _MASKS.values():
        for tran in (None, grb.INP0, grb.INP1):
            d = grb.Descriptor()
            for value in mask_desc or ():
                d.set(grb.MASK, value)
            if tran is not None:
                d.set(tran, grb.TRAN)
            mask = None if mask_desc is None else m
            w = grb.Vector(dom, n)
            grb.mxv(w, mask, None, sr, A, u, d)
            out.append(w.extract_tuples())
            w = grb.Vector(dom, n)
            grb.vxm(w, mask, None, sr, u, A, d)
            out.append(w.extract_tuples())
    return out


@pytest.mark.parametrize("frac", [0, 8, 2, 1], ids=["1", "n/8", "n/2", "n"])
@pytest.mark.parametrize("name,dom,sr", SEMIRINGS, ids=_SR_IDS)
def test_column_walk_equals_row_intersection(name, dom, sr, frac):
    n = 96
    rng = np.random.default_rng(frac + 11)
    A = _matrix(rng, dom, n, n, 1400)
    u = _vector(rng, dom, n, 1 if frac == 0 else n // frac)
    m = grb.Vector.from_coo(
        grb.BOOL, n, np.arange(0, n, 5), np.arange(0, n, 5) % 3 != 0
    )
    # a fresh matrix has no views cached: every call intersects rows
    rows_only = _spmv_all(A.dup(), u, m, sr, dom, n)
    A.csr()
    A.csc()
    with obs.capture() as cap:
        both_views = _spmv_all(A, u, m, sr, dom, n)
    for w, g in zip(rows_only, both_views):
        _same_bytes(w, g)
    directions = {sp.attrs.get("direction") for sp in cap.spans_of("kernel")}
    if frac == 0:
        assert "columns" in directions
    if frac == 1:
        assert "columns" not in directions


def test_walk_needs_the_cached_view():
    """Without the transpose view cached, the row path runs and nothing
    builds that view."""
    rng = np.random.default_rng(3)
    A = _matrix(rng, grb.FP64, 50, 50, 400)
    u = _vector(rng, grb.FP64, 50, 1)
    w = grb.Vector(grb.FP64, 50)
    with obs.capture() as cap:
        grb.mxv(w, None, None, grb.PLUS_TIMES[grb.FP64], A, u)
    assert [sp.attrs["direction"] for sp in cap.spans_of("kernel")] == ["rows"]
    assert A.cached_view(csc=True) is None


def test_unmasked_walk_forms_the_intersections_products():
    rng = np.random.default_rng(5)
    A = _matrix(rng, grb.FP64, 80, 80, 900)
    u = _vector(rng, grb.FP64, 80, 10)

    def realized(matrix):
        w = grb.Vector(grb.FP64, 80)
        with obs.capture() as cap:
            grb.mxv(w, None, None, grb.PLUS_TIMES[grb.FP64], matrix, u)
        (sp,) = cap.spans_of("kernel")
        return sp.attrs["direction"], sp.attrs["flops_realized"]

    rows = realized(A.dup())
    A.csc()
    cols = realized(A)
    assert (rows[0], cols[0]) == ("rows", "columns")
    assert rows[1] == cols[1]


# ------------------------------------------------------ the CSC view


@pytest.mark.parametrize("shape", [(1, 1), (40, 255), (300, 65536), (7, 65537),
                                   (65537, 3)])
def test_transpose_permutation_is_the_stable_argsort(shape):
    nrows, ncols = shape
    rng = np.random.default_rng(nrows + ncols)
    keys = np.unique(rng.integers(0, nrows * ncols, 3000))
    t_keys, perm = transpose_permutation(keys, nrows, ncols)
    rows, cols = keys // ncols, keys % ncols
    want_t = cols * np.int64(nrows) + rows
    want = _stable(want_t)
    assert np.array_equal(perm, want)
    assert np.array_equal(t_keys, want_t[want])
