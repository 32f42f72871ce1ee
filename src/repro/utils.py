"""LAGraph-style conveniences built *on top of* the public API.

These helpers use only GraphBLAS operations internally (the dogfooding the
paper's composability argument promises): equality via eWise intersection
+ LAND reduction, norms via apply + reduce.  Each helper has one body for
both collection kinds.
"""

from __future__ import annotations

import numpy as np

from .algebra import LAND_MONOID, MAX_MONOID, PLUS_MONOID
from .containers import Matrix, SparseCollection, Vector
from .info import InvalidValue
from .operations import apply, ewise_mult, reduce_to_scalar
from .ops import ABS, EQ
from .types import BOOL, FP64

__all__ = [
    "matrices_equal",
    "vectors_equal",
    "pattern_equal",
    "norm_max",
    "norm_sum",
    "is_symmetric",
]


def _equal(X, Y, kind, what: str, check_type: bool) -> bool:
    """Same shape, same pattern, same (domain-cast) values.

    Implemented as the LAGraph idiom: ``Z = X .EQ. Y`` over the pattern
    intersection must have X's nvals, and LAND-reduce to true.  UDT values
    are compared in Python, in key order.
    """
    if not isinstance(X, kind) or not isinstance(Y, kind):
        raise InvalidValue(what)
    if X.shape != Y.shape or X.nvals() != Y.nvals():
        return False
    if X.type.is_udt or Y.type.is_udt:
        return X.type == Y.type and list(X) == list(Y)
    if check_type and X.type != Y.type:
        return False
    # compare through the wider domain
    cmp_domain = X.type if X.type.nbits >= Y.type.nbits else Y.type
    Z = kind(BOOL, *X.shape)
    ewise_mult(Z, None, None, EQ[cmp_domain], X, Y, None)
    result = Z.nvals() == X.nvals() and bool(
        reduce_to_scalar(LAND_MONOID[BOOL], Z)
    )
    Z.free()
    return result


def matrices_equal(A: Matrix, B: Matrix, *, check_type: bool = True) -> bool:
    """Same dimensions, same pattern, same (domain-cast) values."""
    return _equal(A, B, Matrix, "matrices_equal compares two matrices", check_type)


def vectors_equal(u: Vector, v: Vector, *, check_type: bool = True) -> bool:
    """Vector counterpart of :func:`matrices_equal`."""
    return _equal(u, v, Vector, "vectors_equal compares two vectors", check_type)


def pattern_equal(A, B) -> bool:
    """Structure-only comparison (values ignored)."""
    if not isinstance(A, SparseCollection) or type(A) is not type(B):
        raise InvalidValue("pattern_equal compares two collections of one kind")
    if A.shape != B.shape or A.nvals() != B.nvals():
        return False
    coords_a, coords_b = A.extract_tuples()[:-1], B.extract_tuples()[:-1]
    return all(np.array_equal(a, b) for a, b in zip(coords_a, coords_b))


def _abs_reduce(X, monoid) -> float:
    """Reduce |x| over the stored elements of *X* (0 for an empty one)."""
    absd = type(X)(FP64, *X.shape)
    apply(absd, None, None, ABS[FP64], X, None)
    out = float(reduce_to_scalar(monoid, absd)) if absd.nvals() else 0.0
    absd.free()
    return out


def norm_max(X) -> float:
    """max |x| over stored elements (0 for an empty collection)."""
    return _abs_reduce(X, MAX_MONOID[FP64])


def norm_sum(X) -> float:
    """Σ |x| over stored elements."""
    return _abs_reduce(X, PLUS_MONOID[FP64])


def is_symmetric(A: Matrix, *, values: bool = True) -> bool:
    """Pattern (and optionally value) symmetry check via one transpose."""
    if A.nrows != A.ncols:
        return False
    from .operations import transpose

    T = Matrix(A.type, A.nrows, A.ncols)
    transpose(T, None, None, A, None)
    out = matrices_equal(A, T) if values else pattern_equal(A, T)
    T.free()
    return out
