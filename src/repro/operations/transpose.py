"""``transpose``: ``C⟨Mask⟩ ⊙= Aᵀ`` (Table II row 9).

With ``INP0 = TRAN`` the input is transposed *before* the operation, so the
net effect is ``C ⊙= A`` — a descriptor-controlled copy, which the spec
permits and tests rely on.
"""

from __future__ import annotations

from ..containers.matrix import Matrix
from ..descriptor import Descriptor, effective
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

__all__ = ["transpose"]


def transpose(
    C: Matrix,
    Mask: Matrix | None,
    accum: BinaryOp | None,
    A: Matrix,
    desc: Descriptor | None = None,
) -> Matrix:
    """``GrB_transpose``: swap row and column indices of every tuple
    (section III-A's definition of Aᵀ)."""
    check_output(C)
    check_input(A, "A")
    check_kind(A, 2, "A")
    d = effective(desc)
    # INP0=TRAN pre-transposes A; the operation then transposes again, so
    # T is A oriented by the opposite bit
    check_shape(C, A._oriented_shape(not d.transpose0), "output")
    validate_mask_shape(Mask, C._shape)
    validate_accum(accum, C, A.type)

    def kernel(mask_view):
        t = A._oriented(not d.transpose0)
        return t if mask_view is None else mask_view.restrict(*t)

    submit_standard_op(
        C, Mask, accum, d,
        label="transpose", t_type=A.type, kernel=kernel, inputs=(A,),
    )
    return C
