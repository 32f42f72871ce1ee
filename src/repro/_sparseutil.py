"""Low-level sorted-index-set primitives shared by all kernels.

Both GraphBLAS collections reduce to the same internal shape: a sorted,
duplicate-free ``int64`` key array plus a parallel value array.  For a vector
the keys are element indices; for a matrix they are flattened ``i*ncols + j``
keys (row-major, matching CSR order).  Every eWise merge, mask application,
accumulation and write-pipeline step is then a handful of set operations on
sorted key arrays, implemented here once.

Looking keys up in a sorted-unique table — is each key stored
(:func:`membership`), and where (:func:`positions`) — goes through one
direct-address table over the table's own key range ``[table[0],
table[-1]]``: a bool bitmap or a position map, built in one scatter and
probed in one gather.  It is used only within a derived bound: enough keys
to pay for the build, a range within a fixed multiple of the keys the call
touches, and an absolute cell cap.  Outside it the lookup is a
``searchsorted``.  Both answer exactly the same, so which one ran never
shows in a result.

All functions assume (and preserve) the sorted-unique invariant of tables;
the keys looked up may come in any order.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from .info import InsufficientSpace

__all__ = [
    "check_flat_capacity",
    "flatten_keys",
    "unflatten_keys",
    "split_keys",
    "join_keys",
    "membership",
    "positions",
    "bitmap",
    "probe",
    "strictly_increasing",
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


def split_keys(keys: np.ndarray, shape: tuple) -> tuple[np.ndarray, ...]:
    """The coordinate arrays of row-major *keys* over *shape*: one per
    dimension.  A 1-D key is its own coordinate and comes back uncopied."""
    if len(shape) == 1:
        return (keys,)
    return unflatten_keys(keys, shape[1])


def join_keys(coords, shape: tuple) -> np.ndarray:
    """Inverse of :func:`split_keys`."""
    if len(shape) == 1:
        return coords[0]
    return flatten_keys(*coords, shape[1])


#: cells a direct-address table may span per key looked up or stored, per
#: form: past these a ``searchsorted`` is faster, since the table's build
#: touches a new page per stored key (measured break-even on a 2-core x86
#: host, k = m = 8 000 sorted keys: ~180 for a bool bitmap, ~45 for an
#: int32 map; shuffled keys move both further out)
_BITMAP_SPAN = 128
_POSITIONS_SPAN = 32
#: absolute cap on a direct-address table's cells (4 MiB as a bitmap)
_DIRECT_CELLS = 1 << 22
#: a table pays for its build only over enough keys: at least this many,
#: and at least one per ``_DIRECT_TABLE_PER_KEY`` stored entries; below
#: either, ``searchsorted``'s O(k log m) is the cheaper lookup (measured
#: break-even: ~500 keys, and k ≈ m / 16 to m / 4)
_DIRECT_MIN_KEYS = 512
_DIRECT_TABLE_PER_KEY = 8


def _direct_range(table: np.ndarray, n_keys: int, span_per_key: int):
    """``(lo, span)`` of non-empty *table*'s key range when a table over it
    is within bound for a lookup of *n_keys* keys, else ``None``."""
    if n_keys < max(_DIRECT_MIN_KEYS, len(table) // _DIRECT_TABLE_PER_KEY):
        return None
    lo = int(table[0])
    span = int(table[-1]) - lo + 1
    if span > min(_DIRECT_CELLS, span_per_key * (n_keys + len(table))):
        return None
    return lo, span


def bitmap(table: np.ndarray, n_keys: int) -> tuple[int, np.ndarray] | None:
    """A bool bitmap of sorted-unique *table*, for a lookup of *n_keys*
    keys with :func:`probe`; ``None`` when its range is out of bound."""
    if len(table) == 0:
        return None
    rng = _direct_range(table, n_keys, _BITMAP_SPAN)
    if rng is None:
        return None
    lo, span = rng
    cells = np.zeros(span + 1, dtype=bool)
    cells[table - lo] = True
    return lo, cells


def _position_map(table: np.ndarray, n_keys: int):
    """:func:`bitmap`'s position form: each stored key's index in *table*,
    -1 elsewhere."""
    rng = _direct_range(table, n_keys, _POSITIONS_SPAN)
    if rng is None:
        return None
    lo, span = rng
    # within the cell cap every position fits in int32
    cells = np.full(span + 1, -1, dtype=np.int32)
    cells[table - lo] = np.arange(len(table), dtype=np.int32)
    return lo, cells


def probe(direct: tuple[int, np.ndarray], keys: np.ndarray) -> np.ndarray:
    """Look *keys* up in a direct-address table ``(lo, cells)``: the last
    cell answers every key outside the range, since a key below ``lo``
    wraps past its end as an unsigned offset."""
    lo, cells = direct
    idx = (keys - np.int64(lo)).view(np.uint64)
    np.minimum(idx, np.uint64(len(cells) - 1), out=idx)
    return cells[idx]


def _search(keys: np.ndarray, table: np.ndarray) -> np.ndarray:
    """:func:`membership` by ``searchsorted``, for a table out of
    :func:`bitmap`'s bound."""
    if len(table) == 0:
        return np.zeros(len(keys), dtype=bool)
    pos = np.searchsorted(table, keys)
    np.minimum(pos, len(table) - 1, out=pos)
    return table[pos] == keys


def membership(keys: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Boolean mask: which of *keys* appear in sorted-unique *table*."""
    direct = bitmap(table, len(keys))
    return _search(keys, table) if direct is None else probe(direct, keys)


def positions(keys: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Each of *keys*' index in sorted-unique *table*, or -1 when absent."""
    if len(table) == 0:
        return np.full(len(keys), -1, dtype=np.int64)
    direct = _position_map(table, len(keys))
    if direct is not None:
        return probe(direct, keys)
    pos = np.searchsorted(table, keys)
    np.minimum(pos, len(table) - 1, out=pos)
    pos[table[pos] != keys] = -1
    return pos


def strictly_increasing(a: np.ndarray) -> bool:
    """Whether *a* is sorted with no repeats — already a sorted-unique set."""
    return len(a) < 2 or bool((a[1:] > a[:-1]).all())


def intersect_indices(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions ``(ia, ib)`` such that ``a[ia] == b[ib]`` (set intersection).

    This is the paper's ``ind(A(i,:)) ∩ ind(B(:,j))`` primitive: the ⊗ operator
    is applied only on the intersection of stored index sets.
    """
    if len(a) == 0 or len(b) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    pos = positions(a, b)
    ia = np.flatnonzero(pos >= 0)
    return ia, pos[ia].astype(np.int64, copy=False)


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
