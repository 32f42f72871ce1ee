"""Low-level sorted-index-set primitives shared by all kernels.

Both GraphBLAS collections reduce to the same internal shape: a sorted,
duplicate-free ``int64`` key array plus a parallel value array.  For a vector
the keys are element indices; for a matrix they are flattened ``i*ncols + j``
keys (row-major, matching CSR order).  Every eWise merge, mask application,
accumulation and write-pipeline step is then a handful of set operations on
sorted key arrays, implemented here once with ``searchsorted``.

All functions assume (and preserve) the sorted-unique invariant.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from .info import InsufficientSpace

__all__ = [
    "check_flat_capacity",
    "flatten_keys",
    "unflatten_keys",
    "membership",
    "intersect_indices",
    "setdiff_mask",
    "union_keys",
    "segment_reduce",
    "group_starts",
    "ranges_concat",
    "stable_order",
]

#: Largest nrows*ncols product for which flat int64 keys are safe.
_FLAT_LIMIT = np.int64(2) ** 62


def check_flat_capacity(nrows: int, ncols: int) -> None:
    """Guard the flat-key representation against int64 overflow.

    The C spec's ``GrB_INDEX_MAX`` allows dimensions up to 2**60; flattened
    row-major keys need ``nrows*ncols`` to fit in int64.  Laptop-scale
    reproduction never hits this, but fail loudly rather than corrupt keys.
    """
    if int(nrows) * int(ncols) >= int(_FLAT_LIMIT):
        raise InsufficientSpace(
            f"matrix of shape {nrows}x{ncols} exceeds the flat-key capacity "
            "of this implementation"
        )


def flatten_keys(rows: np.ndarray, cols: np.ndarray, ncols: int) -> np.ndarray:
    """Row-major flat keys ``i*ncols + j`` (int64)."""
    return rows.astype(np.int64) * np.int64(ncols) + cols.astype(np.int64)


def unflatten_keys(keys: np.ndarray, ncols: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`flatten_keys`."""
    rows, cols = np.divmod(keys, np.int64(ncols))
    return rows, cols


def membership(keys: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Boolean mask: which of *keys* appear in sorted-unique *table*."""
    if len(table) == 0:
        return np.zeros(len(keys), dtype=bool)
    pos = np.searchsorted(table, keys)
    pos_c = np.minimum(pos, len(table) - 1)
    return table[pos_c] == keys


def intersect_indices(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions ``(ia, ib)`` such that ``a[ia] == b[ib]`` (set intersection).

    This is the paper's ``ind(A(i,:)) ∩ ind(B(:,j))`` primitive: the ⊗ operator
    is applied only on the intersection of stored index sets.
    """
    if len(a) == 0 or len(b) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    in_b = membership(a, b)
    ia = np.nonzero(in_b)[0]
    ib = np.searchsorted(b, a[ia])
    return ia.astype(np.int64), ib.astype(np.int64)


def setdiff_mask(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean mask over *a*: entries NOT present in sorted-unique *b*."""
    return ~membership(a, b)


def union_keys(
    a_keys: np.ndarray,
    a_vals: np.ndarray,
    b_keys: np.ndarray,
    b_vals: np.ndarray,
    out_dtype: np.dtype,
    combine: Callable[[np.ndarray, np.ndarray], np.ndarray],
    cast_a: Callable[[np.ndarray], np.ndarray] | None = None,
    cast_b: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge two sorted key/value sets.

    Keys only in ``a`` keep ``cast_a(a_vals)``; keys only in ``b`` keep
    ``cast_b(b_vals)``; on the intersection ``combine(a, b)`` (already-cast
    inputs are the caller's responsibility — ``combine`` receives the *raw*
    paired values).  Returns sorted-unique keys with values of *out_dtype*.
    """
    cast_a = cast_a or (lambda x: x)
    cast_b = cast_b or (lambda x: x)
    if len(a_keys) == 0:
        return b_keys.copy(), np.array(cast_b(b_vals), dtype=out_dtype, copy=True)
    if len(b_keys) == 0:
        return a_keys.copy(), np.array(cast_a(a_vals), dtype=out_dtype, copy=True)

    ia, ib = intersect_indices(a_keys, b_keys)
    only_a = np.ones(len(a_keys), dtype=bool)
    only_a[ia] = False
    only_b = np.ones(len(b_keys), dtype=bool)
    only_b[ib] = False

    keys = np.concatenate([a_keys[only_a], b_keys[only_b], a_keys[ia]])
    n_total = len(keys)
    vals = np.empty(n_total, dtype=out_dtype)
    na, nb = int(only_a.sum()), int(only_b.sum())
    vals[:na] = cast_a(a_vals[only_a])
    vals[na : na + nb] = cast_b(b_vals[only_b])
    if len(ia):
        vals[na + nb :] = combine(a_vals[ia], b_vals[ib])

    order = np.argsort(keys, kind="stable")
    return keys[order], vals[order]


def group_starts(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unique keys of a *sorted* array plus the start offset of each run."""
    if len(sorted_keys) == 0:
        return sorted_keys, np.empty(0, dtype=np.int64)
    boundary = np.empty(len(sorted_keys), dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundary[1:])
    starts = np.nonzero(boundary)[0].astype(np.int64)
    return sorted_keys[starts], starts


def segment_reduce(values: np.ndarray, starts: np.ndarray, monoid) -> np.ndarray:
    """Reduce each segment ``values[starts[k]:starts[k+1]]`` with a monoid.

    Uses ``ufunc.reduceat`` when the monoid's operator has a genuine numpy
    ufunc (the fast path every predefined monoid hits); otherwise a Python
    loop over segments.  Segments must be non-empty.
    """
    if len(starts) == 0:
        return np.empty(0, dtype=values.dtype)
    uf = monoid.op.ufunc
    if uf is not None and values.dtype != np.dtype(object):
        # keep the reduction in the monoid's domain: reduceat promotes
        # integer sums/products to 64 bits, which would leak non-wrapped
        # values to callers that trust t_type
        return uf.reduceat(values, starts).astype(values.dtype, copy=False)
    ends = np.empty(len(starts), dtype=np.int64)
    ends[:-1] = starts[1:]
    ends[-1] = len(values)
    out = np.empty(len(starts), dtype=values.dtype)
    for k in range(len(starts)):
        seg = values[starts[k] : ends[k]]
        acc = seg[0]
        for v in seg[1:]:
            acc = monoid.op(acc, v)
        out[k] = acc
    return out


def ranges_concat(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[k], starts[k]+counts[k])`` for all k.

    The standard vectorized gather of CSR row segments: given per-segment
    start offsets and lengths, produce the flat index array selecting every
    element of every segment, in order.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # within-segment offsets: arange(total) minus the cumulative start of
    # each segment, repeated per element
    seg_offsets = np.repeat(
        np.concatenate([[0], np.cumsum(counts)[:-1]]), counts
    )
    within = np.arange(total, dtype=np.int64) - seg_offsets
    return np.repeat(starts.astype(np.int64), counts) + within


#: ids below this bound sort as ``uint16``, which numpy's stable sort
#: handles by radix instead of by timsort
_RADIX_BOUND = 1 << 16


def stable_order(ids: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(ids, kind="stable")`` for non-negative ids below *bound*.

    The same permutation, by radix sort on a ``uint16`` copy of the ids when
    *bound* allows it; a stable sort is defined by the order of the keys
    alone, so the narrower dtype cannot change it.
    """
    if bound <= _RADIX_BOUND:
        return np.argsort(ids.astype(np.uint16), kind="stable")
    return np.argsort(ids, kind="stable")
