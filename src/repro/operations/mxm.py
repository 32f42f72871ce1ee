"""Matrix multiplication over a semiring: ``mxm``, ``mxv``, ``vxm``
(Table II rows 1–3; Fig. 2 documents the full ``GrB_mxm`` signature).

Descriptor handling matches Fig. 2b: ``INP0``/``INP1`` = ``TRAN`` transpose
the corresponding matrix input before the product; ``MASK`` = ``SCMP`` uses
the structural complement; ``OUTP`` = ``REPLACE`` clears the output before
the masked result is stored.
"""

from __future__ import annotations

from ..algebra.semiring import Semiring
from ..containers.matrix import Matrix
from ..containers.vector import Vector
from ..descriptor import Descriptor, effective
from ..info import DimensionMismatch, DomainMismatch, InvalidValue
from ..ops.base import BinaryOp
from ..types import can_cast, cast_array
from ._kernels import spgemm, spmv
from .common import (
    check_input,
    check_kind,
    check_output,
    check_shape,
    submit_standard_op,
    validate_accum,
    validate_mask_shape,
)

__all__ = ["mxm", "mxv", "vxm"]


def _require_semiring(op) -> Semiring:
    if not isinstance(op, Semiring):
        raise InvalidValue(
            f"a Semiring is required for matrix multiplication, got {op!r}"
        )
    return op


def _check_mul_domains(op: Semiring, a_type, b_type) -> None:
    if not can_cast(a_type, op.d_in1):
        raise DomainMismatch(
            f"first input domain {a_type.name} cannot feed multiply input "
            f"{op.d_in1.name}"
        )
    if not can_cast(b_type, op.d_in2):
        raise DomainMismatch(
            f"second input domain {b_type.name} cannot feed multiply input "
            f"{op.d_in2.name}"
        )


def _spmv_kernel(op: Semiring, A: Matrix, by_csc: bool, u: Vector, swap: bool):
    """The kernel of ``mxv``/``vxm``: rows of ``A.csc()`` (*by_csc*) or of
    ``A.csr()`` against *u*, with the other view offered for the column
    walk when it is already cached."""
    a_dom, u_dom = (op.d_in2, op.d_in1) if swap else (op.d_in1, op.d_in2)

    def cast_a(vals):
        return cast_array(vals, A.type, a_dom)

    def kernel(mask_view):
        a_view = A._view(by_csc)
        walk_view = A.cached_view(csc=not by_csc)
        u_keys, u_raw = u._content()
        return spmv(
            a_view, cast_a(a_view.values), u_keys,
            cast_array(u_raw, u.type, u_dom), op, swap=swap,
            mask_view=mask_view,
            walk=None if walk_view is None else (walk_view, cast_a),
        )

    return kernel


def mxm(
    C: Matrix,
    Mask: Matrix | None,
    accum: BinaryOp | None,
    op: Semiring,
    A: Matrix,
    B: Matrix,
    desc: Descriptor | None = None,
) -> Matrix:
    """``GrB_mxm``: ``C⟨Mask⟩ ⊙= A ⊕.⊗ B`` (Fig. 2).

    Returns ``C`` (which the C API mutates through its INOUT parameter).
    """
    check_output(C)
    check_input(A, "A")
    check_input(B, "B")
    check_kind(C, 2, "output")
    check_kind(A, 2, "A")
    check_kind(B, 2, "B")
    op = _require_semiring(op)
    d = effective(desc)

    a_shape = A._oriented_shape(d.transpose0)
    b_shape = B._oriented_shape(d.transpose1)
    if a_shape[1] != b_shape[0]:
        raise DimensionMismatch(
            f"inner dimensions do not agree: {a_shape} x {b_shape}"
        )
    if C.shape != (a_shape[0], b_shape[1]):
        raise DimensionMismatch(
            f"output is {C.shape}, product is {(a_shape[0], b_shape[1])}"
        )
    validate_mask_shape(Mask, C._shape)
    _check_mul_domains(op, A.type, B.type)
    validate_accum(accum, C, op.d_out)

    def kernel(mask_view):
        a_view = A._view(d.transpose0)
        b_view = B._view(d.transpose1)
        a_vals = cast_array(a_view.values, A.type, op.d_in1)
        b_vals = cast_array(b_view.values, B.type, op.d_in2)
        return spgemm(a_view, a_vals, b_view, b_vals, op, mask_view)

    submit_standard_op(
        C, Mask, accum, d,
        label="mxm", t_type=op.d_out, kernel=kernel, inputs=(A, B),
        op_token=op,
    )
    return C


def mxv(
    w: Vector,
    mask: Vector | None,
    accum: BinaryOp | None,
    op: Semiring,
    A: Matrix,
    u: Vector,
    desc: Descriptor | None = None,
) -> Vector:
    """``GrB_mxv``: ``w⟨mask⟩ ⊙= A ⊕.⊗ u`` (Table II row 2)."""
    check_output(w)
    check_input(A, "A")
    check_input(u, "u")
    check_kind(A, 2, "A")
    op = _require_semiring(op)
    d = effective(desc)

    a_shape = A._oriented_shape(d.transpose0)
    check_shape(u, (a_shape[1],), "u")
    check_shape(w, (a_shape[0],), "output")
    validate_mask_shape(mask, w._shape)
    _check_mul_domains(op, A.type, u.type)
    validate_accum(accum, w, op.d_out)

    submit_standard_op(
        w, mask, accum, d,
        label="mxv", t_type=op.d_out,
        kernel=_spmv_kernel(op, A, d.transpose0, u, swap=False),
        inputs=(A, u), op_token=op,
    )
    return w


def vxm(
    w: Vector,
    mask: Vector | None,
    accum: BinaryOp | None,
    op: Semiring,
    u: Vector,
    A: Matrix,
    desc: Descriptor | None = None,
) -> Vector:
    """``GrB_vxm``: ``wᵀ⟨mask⟩ ⊙= uᵀ ⊕.⊗ A`` (Table II row 3).

    ``INP1 = TRAN`` transposes the matrix (the vector input has no useful
    transpose, so ``INP0`` is ignored here, as in reference implementations).
    """
    check_output(w)
    check_input(u, "u")
    check_input(A, "A")
    check_kind(A, 2, "A")
    op = _require_semiring(op)
    d = effective(desc)

    a_shape = A._oriented_shape(d.transpose1)
    check_shape(u, (a_shape[0],), "u")
    check_shape(w, (a_shape[1],), "output")
    validate_mask_shape(mask, w._shape)
    _check_mul_domains(op, u.type, A.type)
    validate_accum(accum, w, op.d_out)

    # t(j) = ⊕_i u(i) ⊗ Ae(i,j): run the row-oriented kernel on Aeᵀ, with
    # the multiply operands swapped back into u ⊗ A order
    submit_standard_op(
        w, mask, accum, d,
        label="vxm", t_type=op.d_out,
        kernel=_spmv_kernel(op, A, not d.transpose1, u, swap=True),
        inputs=(u, A), op_token=op,
    )
    return w
