"""Element-wise operations: ``eWiseAdd`` (pattern union) and ``eWiseMult``
(pattern intersection) — Table II rows 4–5.

The names refer to the *pattern* semantics, not the operator: either can use
any binary operator.  Per the C API, ``op`` may be a semiring (whose ⊕ is
used for add, ⊗ for mult), a monoid, or a plain binary operator.
"""

from __future__ import annotations

import numpy as np

from .._sparseutil import intersect_indices, union_keys
from ..algebra.monoid import Monoid
from ..algebra.semiring import Semiring
from ..descriptor import Descriptor, effective
from ..info import DomainMismatch, InvalidValue
from ..ops.base import BinaryOp
from ..types import can_cast, cast_array
from .common import (
    check_input,
    check_kind,
    check_output,
    check_shape,
    submit_standard_op,
    validate_accum,
    validate_mask_shape,
)

__all__ = ["ewise_add", "ewise_mult", "eWiseAdd", "eWiseMult"]


def _resolve_op(op, which: str) -> BinaryOp:
    """C's ``_Generic`` dispatch: semiring → its ⊕/⊗, monoid → its op."""
    if isinstance(op, Semiring):
        return op.add_op if which == "add" else op.mul
    if isinstance(op, Monoid):
        return op.op
    if isinstance(op, BinaryOp):
        return op
    raise InvalidValue(
        f"eWise op must be a BinaryOp, Monoid, or Semiring, got {op!r}"
    )


def _check_ewise_domains(op: BinaryOp, a_type, b_type) -> None:
    if not can_cast(a_type, op.d_in1):
        raise DomainMismatch(
            f"first input domain {a_type.name} cannot feed {op.name} input "
            f"{op.d_in1.name}"
        )
    if not can_cast(b_type, op.d_in2):
        raise DomainMismatch(
            f"second input domain {b_type.name} cannot feed {op.name} input "
            f"{op.d_in2.name}"
        )


def ewise_add(
    C,
    Mask,
    accum: BinaryOp | None,
    op,
    A,
    B,
    desc: Descriptor | None = None,
):
    """``GrB_eWiseAdd``: ``C⟨Mask⟩ ⊙= A ⊕ B`` over the pattern **union**.

    Entries present in only one input are copied through (cast to the op's
    output domain); entries present in both are combined with the operator.
    Fig. 3 line 42 uses this to fold the BFS frontier's path counts into
    ``numsp``.
    """
    check_output(C)
    check_input(A, "first input")
    check_input(B, "second input")
    bop = _resolve_op(op, "add")
    d = effective(desc)
    check_kind(B, len(C._shape), "second input")  # both kinds before sizes
    check_shape(A, C._shape, "first input", d.transpose0)
    check_shape(B, C._shape, "second input", d.transpose1)
    validate_mask_shape(Mask, C._shape)
    _check_ewise_domains(bop, A.type, B.type)
    # single-present entries are cast directly into the result domain
    for X, what in ((A, "first"), (B, "second")):
        if not can_cast(X.type, bop.d_out):
            raise DomainMismatch(
                f"{what} input domain {X.type.name} cannot be cast to result "
                f"domain {bop.d_out.name}"
            )
    validate_accum(accum, C, bop.d_out)

    def kernel(mask_view):
        a_keys, a_raw = A._oriented(d.transpose0)
        b_keys, b_raw = B._oriented(d.transpose1)

        def combine(av, bv):
            return bop.apply_arrays(
                cast_array(av, A.type, bop.d_in1),
                cast_array(bv, B.type, bop.d_in2),
            )

        t = union_keys(
            a_keys,
            a_raw,
            b_keys,
            b_raw,
            bop.d_out.np_dtype,
            combine,
            cast_a=lambda x: cast_array(x, A.type, bop.d_out),
            cast_b=lambda x: cast_array(x, B.type, bop.d_out),
        )
        return t if mask_view is None else mask_view.restrict(*t)

    submit_standard_op(
        C, Mask, accum, d,
        label="eWiseAdd", t_type=bop.d_out, kernel=kernel, inputs=(A, B),
        op_token=bop,
    )
    return C


def ewise_mult(
    C,
    Mask,
    accum: BinaryOp | None,
    op,
    A,
    B,
    desc: Descriptor | None = None,
):
    """``GrB_eWiseMult``: ``C⟨Mask⟩ ⊙= A ⊗ B`` over the pattern
    **intersection** — the set-notation form of section II, with ⊗ applied
    only where both inputs have stored elements."""
    check_output(C)
    check_input(A, "first input")
    check_input(B, "second input")
    bop = _resolve_op(op, "mult")
    d = effective(desc)
    check_kind(B, len(C._shape), "second input")  # both kinds before sizes
    check_shape(A, C._shape, "first input", d.transpose0)
    check_shape(B, C._shape, "second input", d.transpose1)
    validate_mask_shape(Mask, C._shape)
    _check_ewise_domains(bop, A.type, B.type)
    validate_accum(accum, C, bop.d_out)

    def kernel(mask_view):
        a_keys, a_raw = A._oriented(d.transpose0)
        b_keys, b_raw = B._oriented(d.transpose1)
        ia, ib = intersect_indices(a_keys, b_keys)
        keys = a_keys[ia]
        vals = bop.apply_arrays(
            cast_array(a_raw[ia], A.type, bop.d_in1),
            cast_array(b_raw[ib], B.type, bop.d_in2),
        )
        if not bop.d_out.is_udt and vals.dtype != bop.d_out.np_dtype:
            vals = vals.astype(bop.d_out.np_dtype)
        if mask_view is not None:
            keys, vals = mask_view.restrict(keys, vals)
        return keys, vals

    submit_standard_op(
        C, Mask, accum, d,
        label="eWiseMult", t_type=bop.d_out, kernel=kernel, inputs=(A, B),
        op_token=bop,
    )
    return C


def ewise_union(
    C,
    Mask,
    accum: BinaryOp | None,
    op,
    A,
    alpha,
    B,
    beta,
    desc: Descriptor | None = None,
):
    """``GxB_eWiseUnion``: pattern union where the operator is applied
    *everywhere* — an entry present in only one input pairs with the
    other side's fill scalar: ``op(a, beta)`` or ``op(alpha, b)``.

    This fills the semantic gap between eWiseAdd (single-present values
    copied through) and dense subtraction-like operators: ``eWiseUnion``
    with MINUS and fills 0 behaves like dense ``A - B`` on the union.
    """
    check_output(C)
    check_input(A, "first input")
    check_input(B, "second input")
    bop = _resolve_op(op, "add")
    d = effective(desc)
    check_kind(B, len(C._shape), "second input")  # both kinds before sizes
    check_shape(A, C._shape, "first input", d.transpose0)
    check_shape(B, C._shape, "second input", d.transpose1)
    validate_mask_shape(Mask, C._shape)
    _check_ewise_domains(bop, A.type, B.type)
    validate_accum(accum, C, bop.d_out)
    if bop.d_in1.is_udt:
        bop.d_in1.validate_scalar(alpha)
    if bop.d_in2.is_udt:
        bop.d_in2.validate_scalar(beta)

    def kernel(mask_view):
        a_keys, a_raw = A._oriented(d.transpose0)
        b_keys, b_raw = B._oriented(d.transpose1)
        alpha_arr = (
            np.full(1, alpha, dtype=object)
            if bop.d_in1.is_udt
            else np.asarray([alpha]).astype(bop.d_in1.np_dtype)
        )
        beta_arr = (
            np.full(1, beta, dtype=object)
            if bop.d_in2.is_udt
            else np.asarray([beta]).astype(bop.d_in2.np_dtype)
        )

        def combine(av, bv):
            return bop.apply_arrays(
                cast_array(av, A.type, bop.d_in1),
                cast_array(bv, B.type, bop.d_in2),
            )

        def only_a(av):
            return bop.apply_arrays(
                cast_array(av, A.type, bop.d_in1),
                np.broadcast_to(beta_arr, (len(av),)).copy()
                if len(av)
                else beta_arr[:0],
            )

        def only_b(bv):
            return bop.apply_arrays(
                np.broadcast_to(alpha_arr, (len(bv),)).copy()
                if len(bv)
                else alpha_arr[:0],
                cast_array(bv, B.type, bop.d_in2),
            )

        t = union_keys(
            a_keys,
            a_raw,
            b_keys,
            b_raw,
            bop.d_out.np_dtype,
            combine,
            cast_a=only_a,
            cast_b=only_b,
        )
        return t if mask_view is None else mask_view.restrict(*t)

    submit_standard_op(
        C, Mask, accum, d,
        label="eWiseUnion", t_type=bop.d_out, kernel=kernel, inputs=(A, B),
    )
    return C


# C-API-style aliases
eWiseAdd = ewise_add
eWiseMult = ewise_mult
