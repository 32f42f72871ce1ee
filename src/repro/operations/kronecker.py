"""``kronecker``: ``C⟨Mask⟩ ⊙= kron(A, B)`` (GraphBLAS 1.3 addition).

Every stored pair multiplies: ``C(i·bm+p, j·bn+q) = A(i,j) ⊗ B(p,q)``.
Included both for API completeness and because Kronecker products are the
standard generator of the RMAT-style power-law graphs the benchmark
workloads use (:mod:`repro.io.generators` builds on it).
"""

from __future__ import annotations

import numpy as np

from ..algebra.monoid import Monoid
from ..algebra.semiring import Semiring
from ..containers.matrix import Matrix
from ..descriptor import Descriptor, effective
from ..info import DimensionMismatch, DomainMismatch, InvalidValue
from ..ops.base import BinaryOp
from ..types import can_cast, cast_array
from .._sparseutil import unflatten_keys
from .common import (
    check_input,
    check_output,
    submit_standard_op,
    validate_accum,
    validate_mask_shape,
)

__all__ = ["kronecker"]


def _resolve_mul(op) -> BinaryOp:
    if isinstance(op, Semiring):
        return op.mul
    if isinstance(op, Monoid):
        return op.op
    if isinstance(op, BinaryOp):
        return op
    raise InvalidValue(
        f"kronecker op must be a BinaryOp, Monoid, or Semiring, got {op!r}"
    )


def kronecker(
    C: Matrix,
    Mask: Matrix | None,
    accum: BinaryOp | None,
    op,
    A: Matrix,
    B: Matrix,
    desc: Descriptor | None = None,
) -> Matrix:
    """``GrB_kronecker``: the Kronecker product over ⊗."""
    check_output(C)
    check_input(A, "A")
    check_input(B, "B")
    if not all(isinstance(x, Matrix) for x in (C, A, B)):
        raise InvalidValue("kronecker requires Matrix arguments")
    mul = _resolve_mul(op)
    d = effective(desc)
    a_shape = (A.ncols, A.nrows) if d.transpose0 else A.shape
    b_shape = (B.ncols, B.nrows) if d.transpose1 else B.shape
    out_shape = (a_shape[0] * b_shape[0], a_shape[1] * b_shape[1])
    if C.shape != out_shape:
        raise DimensionMismatch(
            f"output is {C.shape}, kron result is {out_shape}"
        )
    validate_mask_shape(Mask, C)
    if not can_cast(A.type, mul.d_in1) or not can_cast(B.type, mul.d_in2):
        raise DomainMismatch(
            f"input domains ({A.type.name}, {B.type.name}) cannot feed "
            f"{mul.name}"
        )
    validate_accum(accum, C, mul.d_out)

    def kernel(mask_view):
        from .ewise import _matrix_keys

        a_keys, a_raw = _matrix_keys(A, d.transpose0)
        b_keys, b_raw = _matrix_keys(B, d.transpose1)
        if len(a_keys) == 0 or len(b_keys) == 0:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=mul.d_out.np_dtype),
            )
        a_rows, a_cols = unflatten_keys(a_keys, a_shape[1])
        b_rows, b_cols = unflatten_keys(b_keys, b_shape[1])
        nb = len(b_keys)
        out_rows = (
            np.repeat(a_rows, nb) * np.int64(b_shape[0]) + np.tile(b_rows, len(a_keys))
        )
        out_cols = (
            np.repeat(a_cols, nb) * np.int64(b_shape[1]) + np.tile(b_cols, len(a_keys))
        )
        left = cast_array(np.repeat(a_raw, nb), A.type, mul.d_in1)
        right = cast_array(np.tile(b_raw, len(a_keys)), B.type, mul.d_in2)
        keys = out_rows * np.int64(out_shape[1]) + out_cols
        if mask_view is not None:
            keys, left, right = mask_view.restrict(keys, left, right)
        vals = mul.apply_arrays(left, right)
        order = np.argsort(keys, kind="stable")
        return keys[order], vals[order]

    submit_standard_op(
        C, Mask, accum, d,
        label="kronecker", t_type=mul.d_out, kernel=kernel, inputs=(A, B),
    )
    return C
