"""``assign``: write a collection (or a scalar) into a selected subgraph of
the output — Table II row 11.

``C(i, j) ⊙= A`` assigns into the region selected by the index lists; with
a scalar source every region position receives the value (Fig. 3 line 61
fills ``bcu`` with 1.0 over ``GrB_ALL × GrB_ALL`` "to avoid sparsity
issues", and line 77 fills ``delta`` with ``-nsver``).

Semantics beyond the standard pipeline: without an accumulator the region's
previous content is *replaced* (stored C elements at region positions not
covered by the source are deleted); with one, the source merges in via ⊙.
The write-mask then applies over the whole output, as for any operation.
Both run in the standard step 3, :func:`~repro.operations.common.write_step`:
an assign only adds which of C's entries lie outside the region.  Row and
column assign run that step on the extracted line and splice it back.
Index lists must not contain duplicates (the C spec leaves duplicate
behaviour undefined; we reject them).
"""

from __future__ import annotations

import numbers
from typing import Any

import numpy as np

from .. import context
from .._sparseutil import (
    flatten_keys,
    membership,
    strictly_increasing,
    unflatten_keys,
)
from ..containers.matrix import Matrix
from ..containers.mask import build_mask_view, validate_mask_domain
from ..containers.vector import Vector
from ..descriptor import ALL, Descriptor, effective
from ..info import DimensionMismatch, InvalidValue
from ..ops.base import BinaryOp
from .common import (
    check_input,
    check_output,
    run_write_pipeline,
    validate_accum,
    validate_mask_shape,
    write_step,
)
from .extract import resolve_indices

__all__ = [
    "assign",
    "matrix_assign",
    "vector_assign",
    "matrix_assign_scalar",
    "vector_assign_scalar",
    "row_assign",
    "col_assign",
]


from ..containers.scalar import Scalar as _ScalarObject


def _fill(value, t_keys: np.ndarray, dom) -> tuple[np.ndarray, np.ndarray]:
    """T of a scalar source (a plain scalar or an opaque ``GrB_Scalar``,
    resolved at execution time) over the sorted region keys *t_keys*.

    An empty ``GrB_Scalar`` assigns nothing — with no accum the region's
    previous entries are still deleted (spec 2.0)."""
    dtype = object if dom.is_udt else dom.np_dtype
    if isinstance(value, _ScalarObject):
        value._check_valid()
        if not value._has_value:
            return t_keys[:0], np.empty(0, dtype=dtype)
        value = value._value
    if dom.is_udt:
        t_vals = np.empty(len(t_keys), dtype=object)
        t_vals[:] = value
        return t_keys, t_vals
    return t_keys, np.full(
        len(t_keys), np.asarray([value]).astype(dtype)[0], dtype=dtype
    )


def _check_no_duplicates(idx: np.ndarray, what: str) -> None:
    if strictly_increasing(idx):
        return  # GrB_ALL and every sorted list: nothing to sort
    if len(np.unique(idx)) != len(idx):
        raise InvalidValue(
            f"duplicate {what} indices in assign are not allowed"
        )


def _index_outside(idx: np.ndarray, size: int):
    """Which stored positions of a length-*size* line lie outside the
    region *idx*, as a function of those positions; ``None`` when the
    region is the whole line."""
    if len(idx) == size:
        return None
    region = np.sort(idx)
    return lambda keys: ~membership(keys, region)


def _matrix_outside(C, ri: np.ndarray, ci: np.ndarray):
    """:func:`_index_outside` for the region ``ri × ci`` of matrix C."""
    if len(ri) == C.nrows and len(ci) == C.ncols:
        return None
    r_region, c_region = np.sort(ri), np.sort(ci)

    def outside(keys):
        rows, cols = unflatten_keys(keys, C.ncols)
        return ~(membership(rows, r_region) & membership(cols, c_region))

    return outside


def _scatter(u: Vector, idx: np.ndarray):
    """T of a vector source: u's entries moved to their region positions,
    sorted."""
    u_keys, u_raw = u._content()
    t_keys = idx[u_keys]
    order = np.argsort(t_keys, kind="stable")
    return t_keys[order], u_raw[order]


def _submit_assign(C, mask, accum, d, label, inputs, make_t, t_type, outside):
    """Queue an assign: *make_t* builds T (sorted keys in C's index space)
    at execution time; *outside* is the region's :func:`_index_outside`."""
    if accum is not None:
        outside = None  # with ⊙ every stored entry of C survives

    def thunk():
        t_keys, t_vals = make_t()
        mask_view = build_mask_view(mask, d.mask_complement, d.mask_structure)
        if mask_view is not None:
            t_keys, t_vals = mask_view.restrict(t_keys, t_vals)
        run_write_pipeline(
            C, t_keys, t_vals, t_type, accum, mask_view, d.replace,
            None if outside is None else outside(C._content()[0]),
        )

    reads = tuple(x for x in inputs if x is not None) + (C,)
    if mask is not None:
        reads += (mask,)
    context.submit(thunk, reads=reads, writes=C, label=label)


# --------------------------------------------------------------------- matrix

def matrix_assign(
    C: Matrix,
    Mask: Matrix | None,
    accum: BinaryOp | None,
    A: Matrix,
    row_indices,
    col_indices,
    desc: Descriptor | None = None,
) -> Matrix:
    """``GrB_assign`` (matrix): ``C(i, j)⟨Mask⟩ ⊙= A``."""
    check_output(C)
    check_input(A, "A")
    if not isinstance(C, Matrix) or not isinstance(A, Matrix):
        raise InvalidValue("matrix_assign requires Matrix output and input")
    d = effective(desc)
    ri = resolve_indices(row_indices, C.nrows, "row")
    ci = resolve_indices(col_indices, C.ncols, "column")
    _check_no_duplicates(ri, "row")
    _check_no_duplicates(ci, "column")
    a_shape = (A.ncols, A.nrows) if d.transpose0 else A.shape
    if a_shape != (len(ri), len(ci)):
        raise DimensionMismatch(
            f"source is {a_shape} but region is {(len(ri), len(ci))}"
        )
    validate_mask_shape(Mask, C)
    validate_accum(accum, C, A.type)

    def make():
        if d.transpose0:
            view = A.csc()
            a_keys = view.row_ids() * np.int64(view.ncols) + view.indices
            raw = view.values
            src_ncols = view.ncols
        else:
            a_keys, raw = A._content()
            src_ncols = A.ncols
        a_rows, a_cols = unflatten_keys(a_keys, src_ncols)
        t_keys = flatten_keys(ri[a_rows], ci[a_cols], C.ncols)
        order = np.argsort(t_keys, kind="stable")
        return t_keys[order], raw[order]

    _submit_assign(
        C, Mask, accum, d, "assign", (A,), make, A.type,
        _matrix_outside(C, ri, ci),
    )
    return C


def matrix_assign_scalar(
    C: Matrix,
    Mask: Matrix | None,
    accum: BinaryOp | None,
    value: Any,
    row_indices,
    col_indices,
    desc: Descriptor | None = None,
) -> Matrix:
    """``GrB_assign`` (matrix, scalar source): every region position gets
    *value* — a dense fill of the region (Fig. 3 line 61)."""
    check_output(C)
    if not isinstance(C, Matrix):
        raise InvalidValue("matrix_assign_scalar requires a Matrix output")
    d = effective(desc)
    ri = resolve_indices(row_indices, C.nrows, "row")
    ci = resolve_indices(col_indices, C.ncols, "column")
    _check_no_duplicates(ri, "row")
    _check_no_duplicates(ci, "column")
    validate_mask_shape(Mask, C)
    validate_accum(accum, C, C.type)
    if C.type.is_udt and not isinstance(value, _ScalarObject):
        C.type.validate_scalar(value)

    def make():
        t_keys = (
            ri[:, None].astype(np.int64) * np.int64(C.ncols) + ci[None, :]
        ).ravel()
        return _fill(value, np.sort(t_keys), C.type)

    srcs = (value,) if isinstance(value, _ScalarObject) else ()
    _submit_assign(
        C, Mask, accum, d, "assign_scalar", srcs, make, C.type,
        _matrix_outside(C, ri, ci),
    )
    return C


# --------------------------------------------------------------------- vector

def vector_assign(
    w: Vector,
    mask: Vector | None,
    accum: BinaryOp | None,
    u: Vector,
    indices,
    desc: Descriptor | None = None,
) -> Vector:
    """``GrB_assign`` (vector): ``w(i)⟨mask⟩ ⊙= u``."""
    check_output(w)
    check_input(u, "u")
    if not isinstance(w, Vector) or not isinstance(u, Vector):
        raise InvalidValue("vector_assign requires Vector output and input")
    d = effective(desc)
    idx = resolve_indices(indices, w.size, "vector")
    _check_no_duplicates(idx, "vector")
    if u.size != len(idx):
        raise DimensionMismatch(
            f"source size {u.size} but region selects {len(idx)}"
        )
    validate_mask_shape(mask, w)
    validate_accum(accum, w, u.type)

    _submit_assign(
        w, mask, accum, d, "assign", (u,), lambda: _scatter(u, idx), u.type,
        _index_outside(idx, w.size),
    )
    return w


def vector_assign_scalar(
    w: Vector,
    mask: Vector | None,
    accum: BinaryOp | None,
    value: Any,
    indices,
    desc: Descriptor | None = None,
) -> Vector:
    """``GrB_assign`` (vector, scalar source): dense fill of the region
    (Fig. 3 line 77 fills ``delta`` with ``-nsver``)."""
    check_output(w)
    if not isinstance(w, Vector):
        raise InvalidValue("vector_assign_scalar requires a Vector output")
    d = effective(desc)
    idx = resolve_indices(indices, w.size, "vector")
    _check_no_duplicates(idx, "vector")
    validate_mask_shape(mask, w)
    validate_accum(accum, w, w.type)
    if w.type.is_udt and not isinstance(value, _ScalarObject):
        w.type.validate_scalar(value)

    srcs = (value,) if isinstance(value, _ScalarObject) else ()
    _submit_assign(
        w, mask, accum, d, "assign_scalar", srcs,
        lambda: _fill(value, np.sort(idx), w.type), w.type,
        _index_outside(idx, w.size),
    )
    return w


# ----------------------------------------------------------------- row / col

def row_assign(
    C: Matrix,
    mask: Vector | None,
    accum: BinaryOp | None,
    u: Vector,
    row: int,
    col_indices,
    desc: Descriptor | None = None,
) -> Matrix:
    """``GrB_Row_assign``: ``C(i, j)⟨mask⟩ ⊙= u`` for one row *i*.

    The mask is a vector over the row; replace/merge semantics apply within
    that row only (the rest of C is untouched).
    """
    return _line_assign(C, mask, accum, u, row, col_indices, desc, is_row=True)


def col_assign(
    C: Matrix,
    mask: Vector | None,
    accum: BinaryOp | None,
    u: Vector,
    row_indices,
    col: int,
    desc: Descriptor | None = None,
) -> Matrix:
    """``GrB_Col_assign``: ``C(i, j)⟨mask⟩ ⊙= u`` for one column *j*."""
    return _line_assign(C, mask, accum, u, col, row_indices, desc, is_row=False)


def _line_assign(C, mask, accum, u, line: int, indices, desc, is_row: bool):
    check_output(C)
    check_input(u, "u")
    if not isinstance(C, Matrix) or not isinstance(u, Vector):
        raise InvalidValue("row/col assign requires Matrix output, Vector input")
    d = effective(desc)
    line_len = C.ncols if is_row else C.nrows
    other_len = C.nrows if is_row else C.ncols
    li = int(line)
    if not 0 <= li < other_len:
        raise InvalidValue(
            f"{'row' if is_row else 'column'} {line} out of range"
        )
    idx = resolve_indices(indices, line_len, "line")
    _check_no_duplicates(idx, "line")
    if u.size != len(idx):
        raise DimensionMismatch(
            f"source size {u.size} but region selects {len(idx)}"
        )
    if mask is not None:
        check_input(mask, "mask")
        validate_mask_domain(mask)
        if not isinstance(mask, Vector) or mask.size != line_len:
            raise DimensionMismatch(
                "row/col assign mask must be a vector over the assigned line"
            )
    validate_accum(accum, C, u.type)
    outside = None if accum is not None else _index_outside(idx, line_len)

    def thunk():
        c_keys, c_vals = C._content()
        rows, cols = unflatten_keys(c_keys, C.ncols)
        on_line = rows == li if is_row else cols == li
        line_pos = cols[on_line] if is_row else rows[on_line]

        # the line is a vector assign: its new content from the standard
        # step, with the mask over the line's positions
        t_pos, t_vals = _scatter(u, idx)
        mask_view = build_mask_view(mask, d.mask_complement, d.mask_structure)
        if mask_view is not None:
            t_pos, t_vals = mask_view.restrict(t_pos, t_vals)
        z_pos, z_vals = write_step(
            line_pos, c_vals[on_line], C.type, t_pos, t_vals, u.type,
            accum, mask_view, d.replace,
            None if outside is None else outside(line_pos),
        )

        # splice the new line back into C
        keep_keys = c_keys[~on_line]
        keep_vals = c_vals[~on_line]
        new_keys = (
            np.int64(li) * C.ncols + z_pos
            if is_row
            else z_pos * np.int64(C.ncols) + li
        )
        keys = np.concatenate([keep_keys, new_keys])
        vals = np.concatenate([keep_vals, z_vals])
        o = np.argsort(keys, kind="stable")
        C._set_content(keys[o], vals[o])

    reads = (u, C) + ((mask,) if mask is not None else ())
    context.submit(
        thunk, reads=reads, writes=C,
        label="row_assign" if is_row else "col_assign",
    )
    return C


# ----------------------------------------------------------------- dispatch

def assign(C, Mask, accum, source, *args, **kwargs):
    """Generic ``GrB_assign`` dispatch (the C API's ``_Generic`` macro).

    * matrix source  → :func:`matrix_assign`
    * vector source into a matrix with an integer row/col → row/col assign
    * vector source into a vector → :func:`vector_assign`
    * scalar source  → the scalar variants
    """
    if isinstance(source, Matrix):
        return matrix_assign(C, Mask, accum, source, *args, **kwargs)
    if isinstance(source, Vector):
        if isinstance(C, Vector):
            return vector_assign(C, Mask, accum, source, *args, **kwargs)
        first, second = args[0], args[1]
        rest = args[2:]
        if isinstance(first, numbers.Integral):
            return row_assign(C, Mask, accum, source, first, second, *rest, **kwargs)
        if isinstance(second, numbers.Integral):
            return col_assign(C, Mask, accum, source, first, second, *rest, **kwargs)
        raise InvalidValue("vector-into-matrix assign needs a fixed row or column")
    if isinstance(C, Matrix):
        return matrix_assign_scalar(C, Mask, accum, source, *args, **kwargs)
    return vector_assign_scalar(C, Mask, accum, source, *args, **kwargs)
