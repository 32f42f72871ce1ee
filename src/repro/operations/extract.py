"""``extract``: pull a sub-collection out by index lists (Table II row 10).

``C⟨Mask⟩ ⊙= A(i, j)`` where ``i``/``j`` are index arrays or ``GrB_ALL``.
Index lists may repeat entries (the C API permits duplicates for extract —
each occurrence produces its own output row/column).  Fig. 3 line 33 uses
the matrix form with ``GrB_ALL`` rows and the source-vertex array as
columns, on a transposed adjacency matrix, to initialize the BFS frontier.

The matrix and vector forms are one body over one index list per
dimension: A is read oriented by ``INP0`` (a vector ignores the bit), each
stored element's coordinates are matched against their list, and the
matches are flattened into C's keys.  ``col_extract`` validates with the
same helpers but keeps a column-slice kernel: it reads one column's
elements, not all of A's.
"""

from __future__ import annotations

import numpy as np

from .._sparseutil import (
    group_starts,
    positions,
    ranges_concat,
    split_keys,
    strictly_increasing,
)
from ..containers.matrix import Matrix
from ..containers.vector import Vector
from ..descriptor import ALL, Descriptor, effective
from ..info import IndexOutOfBounds, InvalidIndex, InvalidValue
from ..ops.base import BinaryOp
from .common import (
    check_input,
    check_kind,
    check_output,
    check_shape,
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


def _in_key_order(t_keys, t_vals, mask_view, in_order: bool):
    """T cut to the mask, and sorted unless the keys already come out in
    order (index lists that are all strictly increasing map sorted source
    keys to sorted output keys)."""
    if mask_view is not None:
        t_keys, t_vals = mask_view.restrict(t_keys, t_vals)
    if in_order:
        return t_keys, t_vals
    order = np.argsort(t_keys, kind="stable")
    return t_keys[order], t_vals[order]


def _extract(C, Mask, accum, A, index_lists, desc, names):
    """``C⟨Mask⟩ ⊙= A(I₁, …, Iₖ)`` with one index list per dimension of A
    (and of C); *names* name the dimensions in messages."""
    check_output(C)
    check_input(A, "input")
    check_kind(C, len(index_lists), "output")
    check_kind(A, len(index_lists), "input")
    d = effective(desc)
    a_shape = A._oriented_shape(d.transpose0)
    idx = list(map(resolve_indices, index_lists, a_shape, names))
    check_shape(C, tuple(map(len, idx)), "output")
    validate_mask_shape(Mask, C._shape)
    validate_accum(accum, C, A.type)
    in_order = all(map(strictly_increasing, idx))

    def kernel(mask_view):
        keys, raw = A._oriented(d.transpose0)
        coords = split_keys(keys, a_shape)
        # narrow the elements dimension by dimension: *sel* indexes the
        # survivors, *out* holds their output coordinates so far
        sel, pos = _match_expand(coords[0], idx[0])
        out = [pos]
        for coord, i in zip(coords[1:], idx[1:]):
            s, pos = _match_expand(coord[sel], i)
            sel = sel[s]
            out = [o[s] for o in out] + [pos]
        return _in_key_order(C._flatten(out), raw[sel], mask_view, in_order)

    submit_standard_op(
        C, Mask, accum, d,
        label="extract", t_type=A.type, kernel=kernel, inputs=(A,),
    )
    return C


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
    return _extract(
        C, Mask, accum, A, (row_indices, col_indices), desc, ("row", "column")
    )


def vector_extract(
    w: Vector,
    mask: Vector | None,
    accum: BinaryOp | None,
    u: Vector,
    indices,
    desc: Descriptor | None = None,
) -> Vector:
    """``GrB_extract`` (vector): ``w⟨mask⟩ ⊙= u(i)``."""
    return _extract(w, mask, accum, u, (indices,), desc, ("vector",))


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
    check_kind(w, 1, "output")
    check_kind(A, 2, "A")
    d = effective(desc)
    eff_rows, eff_cols = A._oriented_shape(d.transpose0)
    j = int(col)
    if not 0 <= j < eff_cols:
        # as for row/col assign: a scalar index is GrB_INVALID_INDEX
        raise InvalidIndex(f"column {col} out of range [0, {eff_cols})")
    ri = resolve_indices(row_indices, eff_rows, "row")
    check_shape(w, (len(ri),), "output")
    validate_mask_shape(mask, w._shape)
    validate_accum(accum, w, A.type)
    in_order = strictly_increasing(ri)

    def kernel(mask_view):
        # column j of A (row j under TRAN) is row j of the other orientation
        view = A._view(not d.transpose0)
        sl = view.row_slice(j)
        sel, out_pos = _match_expand(view.indices[sl], ri)
        return _in_key_order(out_pos, view.values[sl][sel], mask_view, in_order)

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
