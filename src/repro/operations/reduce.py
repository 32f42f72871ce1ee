"""``reduce``: fold matrix rows into a vector, or a whole collection into a
scalar (Table II row 6; Fig. 3 line 78 reduces ``bcu`` into ``delta``).

The row-reduce takes a monoid or an associative single-domain binary
operator (the C API's ``GrB_Matrix_reduce_BinaryOp`` form, which Fig. 3
uses by passing ``GrB_PLUS_FP32``).  Rows with no stored elements produce
no output element — there is no implied zero to reduce.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any

from .. import context
from ..algebra.monoid import Monoid
from ..containers.matrix import Matrix
from ..containers.vector import Vector
from ..descriptor import Descriptor, effective
from ..info import DomainMismatch, InvalidValue
from ..ops.base import BinaryOp
from ..types import can_cast, cast_array, cast_scalar
from ._kernels import _observed_kernel, reduce_rows
from .common import (
    check_input,
    check_kind,
    check_output,
    check_shape,
    submit_standard_op,
    validate_accum,
    validate_mask_shape,
)

__all__ = ["reduce_to_vector", "reduce_to_scalar", "reduce"]


def _as_reducer(op):
    """Accept a Monoid or an associative same-domain BinaryOp."""
    if isinstance(op, Monoid):
        return op
    if isinstance(op, BinaryOp):
        if not op.has_monoid_domains:
            raise DomainMismatch(
                f"reduce operator {op.name} must have a single domain"
            )
        if not op.associative:
            raise InvalidValue(
                f"reduce operator {op.name} must be associative"
            )
        # monoid-shaped shim: row segments are never empty, so no identity
        # is needed (exactly why the C API admits a bare binary op here)
        return SimpleNamespace(op=op, domain=op.d_out, identity=None)
    raise InvalidValue(f"reduce requires a Monoid or BinaryOp, got {op!r}")


def reduce_to_vector(
    w: Vector,
    mask: Vector | None,
    accum: BinaryOp | None,
    op,
    A: Matrix,
    desc: Descriptor | None = None,
) -> Vector:
    """``GrB_reduce`` (matrix→vector): ``w⟨mask⟩ ⊙= ⊕_j A(:,j)``.

    ``INP0 = TRAN`` reduces columns instead of rows.
    """
    check_output(w)
    check_input(A, "A")
    check_kind(w, 1, "output")
    check_kind(A, 2, "A")
    red = _as_reducer(op)
    d = effective(desc)
    check_shape(w, A._oriented_shape(d.transpose0)[:1], "output")
    validate_mask_shape(mask, w._shape)
    if not can_cast(A.type, red.domain):
        raise DomainMismatch(
            f"input domain {A.type.name} cannot feed reduction domain "
            f"{red.domain.name}"
        )
    validate_accum(accum, w, red.domain)

    def kernel(mask_view):
        view = A._view(d.transpose0)
        vals = cast_array(view.values, A.type, red.domain)
        t = _observed_kernel(
            "reduce_rows",
            lambda acc: reduce_rows(view.row_ids(), vals, red, acc),
            lambda: (view.nnz, view.nnz),
        )
        return t if mask_view is None else mask_view.restrict(*t)

    submit_standard_op(
        w, mask, accum, d,
        label="reduce", t_type=red.domain, kernel=kernel, inputs=(A,),
        op_token=op, reducer=red,
    )
    return w


def reduce_to_scalar(
    op: Monoid,
    A,
    accum: BinaryOp | None = None,
    init: Any = None,
) -> Any:
    """``GrB_reduce`` (→ scalar): fold every stored element with the monoid.

    Returns the reduction (the monoid identity for an empty collection).
    With *accum* and *init*, returns ``accum(init, reduction)`` — the C
    API's ``val`` INOUT parameter.  Forces completion: the result is a
    non-opaque value (section IV).
    """
    check_input(A, "input")
    if not isinstance(op, Monoid):
        raise InvalidValue(f"reduce_to_scalar requires a Monoid, got {op!r}")
    if not can_cast(A.type, op.domain):
        raise DomainMismatch(
            f"input domain {A.type.name} cannot feed reduction domain "
            f"{op.domain.name}"
        )
    if accum is not None and not isinstance(accum, BinaryOp):
        raise InvalidValue("accum must be a BinaryOp or GrB_NULL")
    context.complete(A)
    _, raw = A._content()
    result = op.reduce_array(cast_array(raw, A.type, op.domain))
    if accum is not None and init is not None:
        a = cast_scalar(init, accum.d_in1, accum.d_in1)
        b = cast_scalar(result, op.domain, accum.d_in2)
        return accum(a, b)
    return result


def reduce_scalar_object(
    s,
    accum: BinaryOp | None,
    op: Monoid,
    A,
) -> "Scalar":
    """``GrB_reduce`` into an opaque ``GrB_Scalar`` (spec 2.0).

    Unlike :func:`reduce_to_scalar`, the output stays opaque, so the
    operation is *deferrable* in nonblocking mode.  An empty input with no
    accumulator leaves the scalar empty (not identity-valued) — the
    collection semantics of "no stored elements" carries through.
    """
    from ..containers.scalar import Scalar

    check_input(A, "input")
    if not isinstance(s, Scalar):
        raise InvalidValue("reduce_scalar_object requires a Scalar output")
    s._check_valid()
    if not isinstance(op, Monoid):
        raise InvalidValue(f"reduce requires a Monoid, got {op!r}")
    if not can_cast(A.type, op.domain):
        raise DomainMismatch(
            f"input domain {A.type.name} cannot feed reduction domain "
            f"{op.domain.name}"
        )
    if accum is not None:
        if not isinstance(accum, BinaryOp):
            raise InvalidValue("accum must be a BinaryOp or GrB_NULL")
        if not can_cast(s.type, accum.d_in1) or not can_cast(
            op.domain, accum.d_in2
        ) or not can_cast(accum.d_out, s.type):
            raise DomainMismatch("accum domains incompatible with reduction")
    elif not can_cast(op.domain, s.type):
        raise DomainMismatch(
            f"reduction domain {op.domain.name} cannot be cast to scalar "
            f"domain {s.type.name}"
        )

    def thunk():
        _, raw = A._content()
        if len(raw) == 0:
            if accum is None:
                s._has_value = False
                s._value = None
                s._poisoned = False
            return
        red = op.reduce_array(cast_array(raw, A.type, op.domain))
        if accum is not None and s._has_value:
            a = cast_scalar(s._value, s.type, accum.d_in1)
            b = cast_scalar(red, op.domain, accum.d_in2)
            s._set_internal(cast_scalar(accum(a, b), accum.d_out, s.type))
        else:
            s._set_internal(cast_scalar(red, op.domain, s.type))

    context.submit(
        thunk,
        reads=(A,) + ((s,) if accum is not None else ()),
        writes=s,
        label="reduce_scalar",
        overwrites_output=accum is None,
    )
    return s


def reduce(w, mask, accum, op, A, desc: Descriptor | None = None):
    """Generic ``GrB_reduce`` dispatch, Fig. 3 line 78 style.

    When the output is a :class:`Vector`, performs the row-reduce; pass the
    scalar form explicitly via :func:`reduce_to_scalar`.
    """
    return reduce_to_vector(w, mask, accum, op, A, desc)
