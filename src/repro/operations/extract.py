"""``extract``: pull a sub-collection out by index lists (Table II row 10).

``C⟨Mask⟩ ⊙= A(i, j)`` where ``i``/``j`` are index arrays or ``GrB_ALL``.
Index lists may repeat entries (the C API permits duplicates for extract —
each occurrence produces its own output row/column).  Fig. 3 line 33 uses
the matrix form with ``GrB_ALL`` rows and the source-vertex array as
columns, on a transposed adjacency matrix, to initialize the BFS frontier.
"""

from __future__ import annotations

import numpy as np

from .._sparseutil import (
    flatten_keys,
    group_starts,
    positions,
    ranges_concat,
    strictly_increasing,
    unflatten_keys,
)
from ..containers.matrix import Matrix
from ..containers.vector import Vector
from ..descriptor import ALL, Descriptor, effective
from ..info import DimensionMismatch, IndexOutOfBounds, InvalidValue
from ..ops.base import BinaryOp
from .common import (
    check_input,
    check_output,
    submit_standard_op,
    validate_accum,
    validate_mask_shape,
)

__all__ = ["extract", "matrix_extract", "vector_extract", "col_extract"]


def resolve_indices(indices, bound: int, what: str) -> np.ndarray:
    """Resolve an index list or ``GrB_ALL`` against a dimension bound, into
    an array the call owns: a deferred call reads the list as it was at the
    call, whatever the caller does with it afterwards (section IV)."""
    if indices is ALL:
        return np.arange(bound, dtype=np.int64)
    arr = np.array(indices, dtype=np.int64)
    if arr.ndim != 1:
        raise InvalidValue(f"{what} index list must be one-dimensional")
    if len(arr) and (arr.min() < 0 or arr.max() >= bound):
        raise IndexOutOfBounds(f"{what} index out of range [0, {bound})")
    return arr


def _match_expand(
    element_ids: np.ndarray, requested: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For each element id, find every position of it in *requested*.

    Returns ``(element_selector, out_positions)``: parallel arrays where
    ``element_selector[k]`` indexes the original element and
    ``out_positions[k]`` is its output index.  The ids are looked up in
    the list's distinct values, and an id expands to every position of its
    value, in list order; for a strictly increasing list that is each id's
    one position, in the ids' order.
    """
    if len(element_ids) == 0 or len(requested) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    order = np.argsort(requested, kind="stable")
    values, starts = group_starts(requested[order])
    pos = positions(element_ids, values)
    selector = np.flatnonzero(pos >= 0)
    hit = pos[selector]
    counts = np.diff(starts, append=len(requested))[hit]
    gather = ranges_concat(starts[hit], counts)
    return np.repeat(selector, counts), order[gather]


def matrix_extract(
    C: Matrix,
    Mask: Matrix | None,
    accum: BinaryOp | None,
    A: Matrix,
    row_indices,
    col_indices,
    desc: Descriptor | None = None,
) -> Matrix:
    """``GrB_extract`` (matrix): ``C⟨Mask⟩ ⊙= A(i, j)``."""
    check_output(C)
    check_input(A, "A")
    if not isinstance(C, Matrix) or not isinstance(A, Matrix):
        raise InvalidValue("matrix_extract requires Matrix output and input")
    d = effective(desc)
    eff_rows, eff_cols = (
        (A.ncols, A.nrows) if d.transpose0 else (A.nrows, A.ncols)
    )
    ri = resolve_indices(row_indices, eff_rows, "row")
    ci = resolve_indices(col_indices, eff_cols, "column")
    if C.shape != (len(ri), len(ci)):
        raise DimensionMismatch(
            f"output is {C.shape} but index lists select "
            f"{(len(ri), len(ci))}"
        )
    validate_mask_shape(Mask, C)
    validate_accum(accum, C, A.type)
    # increasing lists map A's row-major keys monotonically: T comes out
    # in order
    r_inc, c_inc = strictly_increasing(ri), strictly_increasing(ci)

    def kernel(mask_view):
        if d.transpose0:
            view = A.csc()
            keys = view.row_ids() * np.int64(view.ncols) + view.indices
            raw = view.values
            src_ncols = view.ncols
        else:
            keys, raw = A._content()
            src_ncols = A.ncols
        rows, cols = unflatten_keys(keys, src_ncols)
        sel_r, out_r = _match_expand(rows, ri)
        sel_c, out_c = _match_expand(cols[sel_r], ci)
        orig = sel_r[sel_c]
        t_keys = flatten_keys(out_r[sel_c], out_c, len(ci))
        t_vals = raw[orig]
        if mask_view is not None:
            t_keys, t_vals = mask_view.restrict(t_keys, t_vals)
        if r_inc and c_inc:
            return t_keys, t_vals
        order = np.argsort(t_keys, kind="stable")
        return t_keys[order], t_vals[order]

    submit_standard_op(
        C, Mask, accum, d,
        label="extract", t_type=A.type, kernel=kernel, inputs=(A,),
    )
    return C


def vector_extract(
    w: Vector,
    mask: Vector | None,
    accum: BinaryOp | None,
    u: Vector,
    indices,
    desc: Descriptor | None = None,
) -> Vector:
    """``GrB_extract`` (vector): ``w⟨mask⟩ ⊙= u(i)``."""
    check_output(w)
    check_input(u, "u")
    if not isinstance(w, Vector) or not isinstance(u, Vector):
        raise InvalidValue("vector_extract requires Vector output and input")
    d = effective(desc)
    idx = resolve_indices(indices, u.size, "vector")
    if w.size != len(idx):
        raise DimensionMismatch(
            f"output size {w.size} but index list selects {len(idx)}"
        )
    validate_mask_shape(mask, w)
    validate_accum(accum, w, u.type)
    inc = strictly_increasing(idx)

    def kernel(mask_view):
        keys, raw = u._content()
        sel, out_pos = _match_expand(keys, idx)
        t_keys, t_vals = out_pos, raw[sel]
        if mask_view is not None:
            t_keys, t_vals = mask_view.restrict(t_keys, t_vals)
        if inc:
            return t_keys, t_vals
        order = np.argsort(t_keys, kind="stable")
        return t_keys[order], t_vals[order]

    submit_standard_op(
        w, mask, accum, d,
        label="extract", t_type=u.type, kernel=kernel, inputs=(u,),
    )
    return w


def col_extract(
    w: Vector,
    mask: Vector | None,
    accum: BinaryOp | None,
    A: Matrix,
    row_indices,
    col: int,
    desc: Descriptor | None = None,
) -> Vector:
    """``GrB_Col_extract``: ``w⟨mask⟩ ⊙= A(i, j)`` for a single column *j*.

    With ``INP0 = TRAN`` this extracts a row instead.
    """
    check_output(w)
    check_input(A, "A")
    if not isinstance(w, Vector) or not isinstance(A, Matrix):
        raise InvalidValue("col_extract requires Vector output and Matrix input")
    d = effective(desc)
    eff_rows, eff_cols = (
        (A.ncols, A.nrows) if d.transpose0 else (A.nrows, A.ncols)
    )
    j = int(col)
    if not 0 <= j < eff_cols:
        raise IndexOutOfBounds(f"column {col} out of range [0, {eff_cols})")
    ri = resolve_indices(row_indices, eff_rows, "row")
    if w.size != len(ri):
        raise DimensionMismatch(
            f"output size {w.size} but index list selects {len(ri)}"
        )
    validate_mask_shape(mask, w)
    validate_accum(accum, w, A.type)
    inc = strictly_increasing(ri)

    def kernel(mask_view):
        # the column slice of A (or row slice under TRAN) via the CSC view
        view = A.csr() if d.transpose0 else A.csc()
        sl = view.row_slice(j)
        col_rows = view.indices[sl]
        col_vals = view.values[sl]
        sel, out_pos = _match_expand(col_rows, ri)
        t_keys, t_vals = out_pos, col_vals[sel]
        if mask_view is not None:
            t_keys, t_vals = mask_view.restrict(t_keys, t_vals)
        if inc:
            return t_keys, t_vals
        order = np.argsort(t_keys, kind="stable")
        return t_keys[order], t_vals[order]

    submit_standard_op(
        w, mask, accum, d,
        label="col_extract", t_type=A.type, kernel=kernel, inputs=(A,),
    )
    return w


def extract(C, Mask, accum, A, *args, **kwargs):
    """Generic ``GrB_extract`` dispatch (the C API's ``_Generic`` macro).

    * ``extract(C, Mask, accum, A, rows, cols, desc)`` — matrix → matrix
    * ``extract(w, mask, accum, u, indices, desc)`` — vector → vector
    * ``extract(w, mask, accum, A, rows, j, desc)`` — matrix column → vector
    """
    if isinstance(C, Matrix):
        return matrix_extract(C, Mask, accum, A, *args, **kwargs)
    if isinstance(A, Matrix):
        return col_extract(C, Mask, accum, A, *args, **kwargs)
    return vector_extract(C, Mask, accum, A, *args, **kwargs)
