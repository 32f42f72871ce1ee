"""Block-restricted kernel variants for the sharded (process) backend.

Each function computes one block of the internal result T over a window of
the (already shared-memory-attached) CSR, producing *absolute* flat keys —
so stripe partials concatenate, in stripe order, into exactly the sorted
key stream the serial kernel emits.  That is the whole bit-identity
argument, and it is the same one the thread pool relies on in
:func:`repro.operations._kernels._spgemm_impl`: a row-window slice of a
row-major CSR is the same elements in the same order the full kernel would
visit, so every per-row fold is the identical ``segment_reduce`` call.
Holds for *all* domains, floats included.

Workers always run these *unmasked*: mask push-down only ever drops whole
output cells (every product of a forbidden destination, never a subset of
an allowed one), so the parent re-applying the mask in
``run_write_pipeline`` yields the byte-identical survivor set.
"""

from __future__ import annotations

import numpy as np

from .._sparseutil import group_starts, segment_reduce
from ..algebra.semiring import Semiring
from ..containers.formats import CSRView
from ._kernels import _empty

__all__ = [
    "spgemm_stripe",
    "spmv_stripe",
    "reduce_rows_stripe",
]


def spgemm_stripe(
    a_view: CSRView,
    a_vals: np.ndarray,
    b_view: CSRView,
    b_vals: np.ndarray,
    semiring: Semiring,
    lo: int,
    hi: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Expand–sort–reduce over A's rows [lo, hi); returns (keys, vals, flops)."""
    from ._kernels import _spgemm_block

    acc: list = []
    keys, vals = _spgemm_block(
        a_view, a_vals, b_view, b_vals, semiring, slice(lo, hi), None, acc
    )
    return keys, vals, int(sum(acc))


def spmv_stripe(
    a_view: CSRView,
    a_vals: np.ndarray,
    v_keys: np.ndarray,
    v_vals: np.ndarray,
    semiring: Semiring,
    swap: bool,
    lo: int,
    hi: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Push-direction SpMV over rows [lo, hi); keys are absolute row ids.

    This is :func:`repro.operations._kernels._spmv_impl`'s push path
    restricted to a row window — a row-major slice, so per-row intersection
    and fold order are byte-for-byte the full kernel's.
    """
    out_dtype = semiring.d_out.np_dtype
    a_lo, a_hi = int(a_view.indptr[lo]), int(a_view.indptr[hi])
    if a_lo == a_hi or len(v_keys) == 0:
        return (*_empty(out_dtype), 0)

    cols = a_view.indices[a_lo:a_hi]
    pos = np.searchsorted(v_keys, cols)
    pos_c = np.minimum(pos, len(v_keys) - 1)
    hit = v_keys[pos_c] == cols
    if not hit.any():
        return (*_empty(out_dtype), 0)

    rows = np.repeat(
        np.arange(lo, hi, dtype=np.int64),
        np.diff(a_view.indptr[lo : hi + 1]),
    )[hit]
    left = a_vals[a_lo:a_hi][hit]
    right = v_vals[pos_c[hit]]
    prods = (
        semiring.mul.apply_arrays(right, left)
        if swap
        else semiring.mul.apply_arrays(left, right)
    )
    uniq, starts = group_starts(rows)
    vals = segment_reduce(prods, starts, semiring.add)
    if not semiring.d_out.is_udt and vals.dtype != out_dtype:
        vals = vals.astype(out_dtype)
    return uniq, vals, len(left)


def reduce_rows_stripe(
    a_view: CSRView, a_vals: np.ndarray, monoid, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Row reduction over rows [lo, hi); keys are absolute row ids."""
    dtype = monoid.domain.np_dtype
    a_lo, a_hi = int(a_view.indptr[lo]), int(a_view.indptr[hi])
    if a_lo == a_hi:
        return (*_empty(dtype), 0)
    rows = np.repeat(
        np.arange(lo, hi, dtype=np.int64),
        np.diff(a_view.indptr[lo : hi + 1]),
    )
    uniq, starts = group_starts(rows)
    vals = segment_reduce(a_vals[a_lo:a_hi], starts, monoid)
    if not monoid.domain.is_udt and vals.dtype != dtype:
        vals = vals.astype(dtype)
    return uniq, vals, a_hi - a_lo
