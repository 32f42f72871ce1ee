"""``apply``: elementwise unary transformation, ``C⟨Mask⟩ ⊙= F_u(A)``
(Table II row 8).

Fig. 3 uses it twice: line 41 casts the integer frontier to Boolean with
``GrB_IDENTITY_BOOL``, and line 57 computes ``1 ./ numsp`` with
``GrB_MINV_FP32``.  The bind-first/bind-second variants (a binary operator
with one argument fixed to a scalar) and the index-unary variant are the
GrB 1.3/2.0 extensions most algorithms end up wanting.
"""

from __future__ import annotations

import numpy as np

from ..descriptor import Descriptor, effective
from ..info import DomainMismatch, InvalidValue
from ..ops.base import BinaryOp, IndexUnaryOp, UnaryOp
from ..types import can_cast, cast_array, cast_scalar
from ._kernels import index_values, map_values
from .common import (
    check_input,
    check_output,
    check_shape,
    submit_standard_op,
    validate_accum,
    validate_mask_shape,
)

__all__ = ["apply", "apply_bind_first", "apply_bind_second", "apply_index"]


def _map_kernel(A, d, post):
    """The kernel of a value map: :func:`map_values` over A's content."""
    return lambda mask_view: map_values(
        *A._oriented(d.transpose0), mask_view, post
    )


def apply(
    C,
    Mask,
    accum: BinaryOp | None,
    op: UnaryOp,
    A,
    desc: Descriptor | None = None,
):
    """``GrB_apply`` (Table VI): apply a unary operator to every stored
    element.  The pattern of T equals the (possibly transposed) pattern of A.
    """
    check_output(C)
    check_input(A, "input")
    if not isinstance(op, UnaryOp):
        raise InvalidValue(f"apply requires a UnaryOp, got {op!r}")
    d = effective(desc)
    check_shape(A, C._shape, "input", d.transpose0)
    validate_mask_shape(Mask, C._shape)
    if not can_cast(A.type, op.d_in):
        raise DomainMismatch(
            f"input domain {A.type.name} cannot feed {op.name} input "
            f"{op.d_in.name}"
        )
    validate_accum(accum, C, op.d_out)

    def post(raw):
        # the value path, also run on a producer's un-materialized result
        # when apply is a fused chain link (raw arrives in A's domain)
        vals = op.apply_array(cast_array(raw, A.type, op.d_in))
        if not op.d_out.is_udt and vals.dtype != op.d_out.np_dtype:
            vals = vals.astype(op.d_out.np_dtype)
        return vals

    submit_standard_op(
        C, Mask, accum, d,
        label="apply", t_type=op.d_out, kernel=_map_kernel(A, d, post),
        inputs=(A,), op_token=op, post=post,
    )
    return C


def _apply_bound(C, Mask, accum, op, A, desc, scalar, first: bool, label: str):
    check_output(C)
    check_input(A, "input")
    if not isinstance(op, BinaryOp):
        raise InvalidValue(f"{label} requires a BinaryOp, got {op!r}")
    d = effective(desc)
    check_shape(A, C._shape, "input", d.transpose0)
    validate_mask_shape(Mask, C._shape)
    free_in = op.d_in2 if first else op.d_in1
    bound_in = op.d_in1 if first else op.d_in2
    if not can_cast(A.type, free_in):
        raise DomainMismatch(
            f"input domain {A.type.name} cannot feed {op.name} input "
            f"{free_in.name}"
        )
    validate_accum(accum, C, op.d_out)
    if bound_in.is_udt:
        bound_val = bound_in.validate_scalar(scalar)
    else:
        bound_val = cast_scalar(scalar, bound_in, bound_in)

    def post(raw):
        free_vals = cast_array(raw, A.type, free_in)
        bound_arr = np.full(
            len(raw), bound_val,
            dtype=bound_in.np_dtype if not bound_in.is_udt else object,
        )
        if first:
            return op.apply_arrays(bound_arr, free_vals)
        return op.apply_arrays(free_vals, bound_arr)

    submit_standard_op(
        C, Mask, accum, d,
        label=label, t_type=op.d_out, kernel=_map_kernel(A, d, post),
        inputs=(A,),
    )
    return C


def apply_bind_first(C, Mask, accum, op: BinaryOp, scalar, A, desc=None):
    """``GrB_apply`` binop-bind-first: ``C⟨Mask⟩ ⊙= op(s, A)``."""
    return _apply_bound(
        C, Mask, accum, op, A, desc, scalar, first=True, label="apply_bind1st"
    )


def apply_bind_second(C, Mask, accum, op: BinaryOp, A, scalar, desc=None):
    """``GrB_apply`` binop-bind-second: ``C⟨Mask⟩ ⊙= op(A, s)``."""
    return _apply_bound(
        C, Mask, accum, op, A, desc, scalar, first=False, label="apply_bind2nd"
    )


def apply_index(
    C,
    Mask,
    accum: BinaryOp | None,
    op: IndexUnaryOp,
    A,
    thunk_scalar,
    desc: Descriptor | None = None,
):
    """``GrB_apply`` with an index-unary operator: each stored element is
    transformed by ``f(a_ij, i, j, thunk)`` (GrB 2.0)."""
    check_output(C)
    check_input(A, "input")
    if not isinstance(op, IndexUnaryOp):
        raise InvalidValue(f"apply_index requires an IndexUnaryOp, got {op!r}")
    d = effective(desc)
    check_shape(A, C._shape, "input", d.transpose0)
    validate_mask_shape(Mask, C._shape)
    if op.d_in is not None and not can_cast(A.type, op.d_in):
        raise DomainMismatch(
            f"input domain {A.type.name} cannot feed {op.name}"
        )
    validate_accum(accum, C, op.d_out)

    def kernel(mask_view):
        keys, raw = A._oriented(d.transpose0)
        if mask_view is not None:
            keys, raw = mask_view.restrict(keys, raw)
        vals = index_values(keys, raw, op, thunk_scalar, A.type, C._coords)
        if not op.d_out.is_udt and vals.dtype != op.d_out.np_dtype:
            vals = vals.astype(op.d_out.np_dtype)
        return keys, vals

    submit_standard_op(
        C, Mask, accum, d,
        label="apply_index", t_type=op.d_out, kernel=kernel, inputs=(A,),
    )
    return C
