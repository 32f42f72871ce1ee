"""``select``: keep the stored elements satisfying an index-unary predicate
(GraphBLAS 2.0 / GxB extension).

``C⟨Mask⟩ ⊙= select(op, A, thunk)`` — the output has A's domain and the
subset of A's pattern where ``op(a_ij, i, j, thunk)`` is truthy.  This is
the operation triangle counting uses to split an adjacency matrix into its
lower/upper triangles (``TRIL``/``TRIU``).
"""

from __future__ import annotations

from ..descriptor import Descriptor, effective
from ..info import DomainMismatch, InvalidValue
from ..ops.base import BinaryOp, IndexUnaryOp
from ..types import can_cast
from ._kernels import filter_values
from .common import (
    check_input,
    check_output,
    check_shape,
    submit_standard_op,
    validate_accum,
    validate_mask_shape,
)

__all__ = ["select"]


def select(
    C,
    Mask,
    accum: BinaryOp | None,
    op: IndexUnaryOp,
    A,
    thunk_scalar,
    desc: Descriptor | None = None,
):
    """``GrB_select``: filter A's stored elements through the predicate."""
    check_output(C)
    check_input(A, "input")
    if not isinstance(op, IndexUnaryOp):
        raise InvalidValue(f"select requires an IndexUnaryOp, got {op!r}")
    d = effective(desc)
    check_shape(A, C._shape, "input", d.transpose0)
    validate_mask_shape(Mask, C._shape)
    if op.d_in is not None and not can_cast(A.type, op.d_in):
        raise DomainMismatch(
            f"input domain {A.type.name} cannot feed {op.name}"
        )
    # select preserves values: T has A's domain
    validate_accum(accum, C, A.type)
    selector = (op, thunk_scalar)

    def kernel(mask_view):
        return filter_values(
            *A._oriented(d.transpose0), mask_view, selector, A.type, C._coords
        )

    submit_standard_op(
        C, Mask, accum, d,
        label="select", t_type=A.type, kernel=kernel, inputs=(A,),
        selector=selector,
    )
    return C
