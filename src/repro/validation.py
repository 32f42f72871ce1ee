"""Structural invariant checking — the ``GxB_Matrix_check`` debugging aid.

``check(obj)`` verifies every invariant the canonical storage relies on
(sorted duplicate-free keys, index bounds, value-array dtype and length,
CSR/CSC cache coherence) and raises ``InvalidObject`` with a precise
message on the first violation.  The property suites call it after
randomized operation chains; users call it when they suspect memory
corruption-style bugs — the role the paper assigns to blocking mode's
inspectability (section IV).
"""

from __future__ import annotations

import math

import numpy as np

from .containers import Matrix, Scalar, SparseCollection
from .info import InvalidObject, InvalidValue

__all__ = ["check", "check_all"]


def _fail(obj, msg: str):
    raise InvalidObject(f"{type(obj).__name__} invariant violated: {msg}")


def _check_keys(obj, keys: np.ndarray, limit: int) -> None:
    if keys.dtype != np.int64:
        _fail(obj, f"key dtype is {keys.dtype}, expected int64")
    if len(keys):
        if keys.min() < 0 or keys.max() >= limit:
            _fail(obj, f"key out of range [0, {limit})")
        if np.any(np.diff(keys) <= 0):
            _fail(obj, "keys are not strictly increasing (sorted, unique)")


def _check_values(obj, values: np.ndarray, n: int, domain) -> None:
    if len(values) != n:
        _fail(obj, f"value array length {len(values)} != key count {n}")
    if domain.is_udt:
        if values.dtype != np.dtype(object):
            _fail(obj, "UDT values must be stored in an object array")
        cls = domain.udt_class
        if cls is not None:
            for k, v in enumerate(values):
                if not isinstance(v, cls):
                    _fail(obj, f"value at slot {k} is not a {cls.__name__}")
    elif values.dtype != domain.np_dtype:
        _fail(
            obj,
            f"value dtype {values.dtype} != domain dtype {domain.np_dtype}",
        )


def _check_views(A: Matrix, keys: np.ndarray) -> None:
    """Cross-check a matrix's CSR and CSC views against its keys."""
    nrows, ncols = A.shape
    view = A.csr()
    if view.indptr[0] != 0 or view.indptr[-1] != len(keys):
        _fail(A, "CSR indptr endpoints inconsistent")
    if np.any(np.diff(view.indptr) < 0):
        _fail(A, "CSR indptr not monotone")
    rows = np.repeat(np.arange(nrows, dtype=np.int64), np.diff(view.indptr))
    if not np.array_equal(rows * np.int64(ncols) + view.indices, keys):
        _fail(A, "CSR view disagrees with canonical keys")
    csc = A.csc()
    if csc.nnz != len(keys):
        _fail(A, "CSC view nnz disagrees with canonical storage")
    t_rows = np.repeat(np.arange(ncols, dtype=np.int64), np.diff(csc.indptr))
    t_keys = np.sort(csc.indices * np.int64(ncols) + t_rows)
    if not np.array_equal(t_keys, keys):
        _fail(A, "CSC view pattern disagrees with canonical keys")


def check(obj, *, deep: bool = True) -> None:
    """Validate a collection's internal representation.

    Forces completion first (the checked state must be the mathematically
    defined one).  With ``deep`` the derived CSR/CSC caches of a matrix are
    cross-checked against the canonical keys.
    """
    from . import context

    if isinstance(obj, SparseCollection):
        obj._check_valid()
        context.complete(obj)
        keys, values = obj._content()
        _check_keys(obj, keys, math.prod(obj.shape))
        _check_values(obj, values, len(keys), obj.type)
        if deep and isinstance(obj, Matrix) and len(keys):
            _check_views(obj, keys)
        return
    if isinstance(obj, Scalar):
        obj._check_valid()
        context.complete(obj)
        if obj._has_value and not obj.type.is_udt:
            got = np.asarray([obj._value]).dtype
            if got != obj.type.np_dtype:
                _fail(obj, f"scalar value dtype {got} != {obj.type.np_dtype}")
        return
    raise InvalidValue(f"check() does not understand {type(obj).__name__}")


def check_all(objs, *, deep: bool = True) -> None:
    """Validate every collection in *objs*.

    The conformance fuzzer calls this after each optimized run, so an
    operation that leaves the right values behind in a corrupt
    representation (unsorted keys, stale CSR cache, wrong value dtype)
    still counts as a divergence.
    """
    for obj in objs:
        check(obj, deep=deep)
