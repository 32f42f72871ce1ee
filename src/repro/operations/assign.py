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

The matrix and vector forms, with a collection or a scalar source, are one
body over one index list per dimension of C.  The region is the product of
the lists; a collection source is read oriented by ``INP0`` and its
coordinates are mapped through the lists into C's keys; a scalar fills
every key of the region.  One test marks C's entries outside the region.
Row and column assign reuse the same scatter and region test on the line.
"""

from __future__ import annotations

import numbers
from typing import Any

import numpy as np

from .. import context
from .._sparseutil import join_keys, membership, split_keys, strictly_increasing
from ..containers.matrix import Matrix
from ..containers.mask import build_mask_view
from ..containers.scalar import Scalar as _ScalarObject
from ..containers.vector import Vector
from ..descriptor import Descriptor, effective
from ..info import InvalidIndex, InvalidValue
from ..ops.base import BinaryOp
from .common import (
    check_input,
    check_kind,
    check_output,
    check_shape,
    run_write_pipeline,
    validate_accum,
    validate_mask_shape,
    write_step,
)
from .extract import _in_key_order, resolve_indices

__all__ = [
    "assign",
    "matrix_assign",
    "vector_assign",
    "matrix_assign_scalar",
    "vector_assign_scalar",
    "row_assign",
    "col_assign",
]


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


def _increasing_unique(idx: np.ndarray, what: str) -> bool:
    """Reject duplicate indices; return whether *idx* is strictly
    increasing (``GrB_ALL`` and every sorted list)."""
    if strictly_increasing(idx):
        return True
    if len(np.unique(idx)) != len(idx):
        raise InvalidValue(
            f"duplicate {what} indices in assign are not allowed"
        )
    return False


def _outside(shape: tuple, idx: list):
    """Which stored keys of a collection of *shape* lie outside the region
    ``idx[0] × idx[1] × …``, as a function of those keys; ``None`` when the
    region is the whole collection."""
    if tuple(map(len, idx)) == shape:
        return None
    regions = [np.sort(i) for i in idx]

    def outside(keys):
        coords = split_keys(keys, shape)
        inside = membership(coords[0], regions[0])
        for c, region in zip(coords[1:], regions[1:]):
            inside &= membership(c, region)
        return ~inside

    return outside


def _scatter(source, transpose: bool, idx: list, shape: tuple, in_order: bool):
    """T of a collection source: its elements (oriented by *transpose*)
    moved to their region positions in a collection of *shape*, sorted.
    Index lists that are all increasing keep the source's key order."""
    keys, raw = source._oriented(transpose)
    coords = split_keys(keys, tuple(map(len, idx)))
    t_keys = join_keys([i[c] for i, c in zip(idx, coords)], shape)
    return _in_key_order(t_keys, raw, None, in_order)


def _region_keys(idx: list, shape: tuple, in_order: bool) -> np.ndarray:
    """The sorted keys of the region ``idx[0] × idx[1] × …`` of a
    collection of *shape*: row-major, each dimension's list nested in the
    one before."""
    keys = idx[0]
    for i, n in zip(idx[1:], shape[1:]):
        keys = (keys[:, None] * np.int64(n) + i).ravel()
    return keys if in_order else np.sort(keys)


def _assign(C, Mask, accum, source, index_lists, desc, names, scalar: bool):
    """``C(I₁, …, Iₖ)⟨Mask⟩ ⊙= source`` with one index list per dimension
    of C (*names* name them in messages).  The source is a collection of
    the region's shape, read oriented by ``INP0``, or — when *scalar* — a
    value every region position receives."""
    check_output(C)
    if not scalar:
        check_input(source, "source")
        check_kind(source, len(index_lists), "source")
    check_kind(C, len(index_lists), "output")
    d = effective(desc)
    idx = list(map(resolve_indices, index_lists, C._shape, names))
    # every list is checked for repeats: no short-circuit
    in_order = all([_increasing_unique(i, w) for i, w in zip(idx, names)])
    if scalar:
        t_type, label = C.type, "assign_scalar"
        inputs = (source,) if isinstance(source, _ScalarObject) else ()

        def make_t():
            return _fill(source, _region_keys(idx, C._shape, in_order), C.type)
    else:
        check_shape(source, tuple(map(len, idx)), "source", d.transpose0)
        t_type, label, inputs = source.type, "assign", (source,)

        def make_t():
            return _scatter(source, d.transpose0, idx, C._shape, in_order)

    validate_mask_shape(Mask, C._shape)
    validate_accum(accum, C, t_type)
    if scalar and C.type.is_udt and not inputs:
        C.type.validate_scalar(source)
    # with ⊙ every stored entry of C survives
    outside = None if accum is not None else _outside(C._shape, idx)

    def thunk():
        t_keys, t_vals = make_t()
        mask_view = build_mask_view(Mask, d.mask_complement, d.mask_structure)
        if mask_view is not None:
            t_keys, t_vals = mask_view.restrict(t_keys, t_vals)
        run_write_pipeline(
            C, t_keys, t_vals, t_type, accum, mask_view, d.replace,
            None if outside is None else outside(C._content()[0]),
        )

    reads = inputs + (C,) + ((Mask,) if Mask is not None else ())
    context.submit(thunk, reads=reads, writes=C, label=label)
    return C


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
    return _assign(
        C, Mask, accum, A, (row_indices, col_indices), desc,
        ("row", "column"), scalar=False,
    )


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
    return _assign(
        C, Mask, accum, value, (row_indices, col_indices), desc,
        ("row", "column"), scalar=True,
    )


def vector_assign(
    w: Vector,
    mask: Vector | None,
    accum: BinaryOp | None,
    u: Vector,
    indices,
    desc: Descriptor | None = None,
) -> Vector:
    """``GrB_assign`` (vector): ``w(i)⟨mask⟩ ⊙= u``."""
    return _assign(w, mask, accum, u, (indices,), desc, ("vector",), scalar=False)


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
    return _assign(
        w, mask, accum, value, (indices,), desc, ("vector",), scalar=True
    )


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
    check_kind(C, 2, "output")
    check_kind(u, 1, "u")
    d = effective(desc)
    other_len, line_len = C._shape if is_row else C._shape[::-1]
    li = int(line)
    if not 0 <= li < other_len:
        # a scalar index outside the matrix is GrB_INVALID_INDEX, an API
        # error; out-of-range *list* entries are IndexOutOfBounds
        raise InvalidIndex(
            f"{'row' if is_row else 'column'} {line} out of range"
        )
    idx = resolve_indices(indices, line_len, "line")
    in_order = _increasing_unique(idx, "line")
    check_shape(u, (len(idx),), "u")
    validate_mask_shape(mask, (line_len,))
    validate_accum(accum, C, u.type)
    outside = None if accum is not None else _outside((line_len,), [idx])

    def thunk():
        c_keys, c_vals = C._content()
        rows, cols = C._coords(c_keys)
        on_line = rows == li if is_row else cols == li
        line_pos = cols[on_line] if is_row else rows[on_line]

        # the line is a vector assign: its new content from the standard
        # step, with the mask over the line's positions
        t_pos, t_vals = _scatter(u, False, [idx], (line_len,), in_order)
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
