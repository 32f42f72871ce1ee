"""``transpose``: ``C⟨Mask⟩ ⊙= Aᵀ`` (Table II row 9).

With ``INP0 = TRAN`` the input is transposed *before* the operation, so the
net effect is ``C ⊙= A`` — a descriptor-controlled copy, which the spec
permits and tests rely on.
"""

from __future__ import annotations

from ..containers.matrix import Matrix
from ..descriptor import Descriptor, effective
from ..info import DimensionMismatch, InvalidValue
from ..ops.base import BinaryOp
from .common import (
    check_input,
    check_output,
    submit_standard_op,
    validate_accum,
    validate_mask_shape,
)
from .ewise import _matrix_keys

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
    if not isinstance(C, Matrix) or not isinstance(A, Matrix):
        raise InvalidValue("transpose requires Matrix output and input")
    d = effective(desc)
    # INP0=TRAN pre-transposes A; the operation then transposes again.
    out_shape = A.shape if d.transpose0 else (A.ncols, A.nrows)
    if C.shape != out_shape:
        raise DimensionMismatch(
            f"output is {C.shape}, transpose result is {out_shape}"
        )
    validate_mask_shape(Mask, C)
    validate_accum(accum, C, A.type)

    def kernel(mask_view):
        # not d.transpose0: the operation itself supplies one transpose
        t = _matrix_keys(A, not d.transpose0)
        return t if mask_view is None else mask_view.restrict(*t)

    submit_standard_op(
        C, Mask, accum, d,
        label="transpose", t_type=A.type, kernel=kernel, inputs=(A,),
    )
    return C
