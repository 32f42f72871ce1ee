"""CSR/CSC views over the canonical flat-key storage.

A matrix stores sorted row-major flat keys plus values.  Because the keys
are already in CSR order, the CSR view is nearly free: the row pointer comes
from a bincount, the column indices from a modulo.  The CSC view (equals the
CSR of the transpose) needs one stable sort of the column ids — rows are
already in order — and is what column-oriented kernels (``vxm`` without
transpose, the ``mxv`` column walk, ``extract`` by column) consume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..._sparseutil import stable_order

__all__ = ["CSRView", "csr_from_keys", "transpose_permutation"]


@dataclass(frozen=True, slots=True)
class CSRView:
    """Read-only CSR triple over a matrix's storage arrays."""

    indptr: np.ndarray  # int64, len nrows+1
    indices: np.ndarray  # int64 column ids, sorted within each row
    values: np.ndarray  # parallel to indices
    nrows: int
    ncols: int

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def row_slice(self, i: int) -> slice:
        return slice(int(self.indptr[i]), int(self.indptr[i + 1]))

    def row_counts(self) -> np.ndarray:
        return np.diff(self.indptr)

    def row_ids(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Row id of every stored element of rows [lo, hi) — by default all
        of them — in storage order."""
        if hi is None:
            hi = self.nrows
        return np.repeat(
            np.arange(lo, hi, dtype=np.int64), np.diff(self.indptr[lo : hi + 1])
        )


def csr_from_keys(
    keys: np.ndarray, values: np.ndarray, nrows: int, ncols: int
) -> CSRView:
    """Build the CSR view of sorted row-major flat keys (O(nnz))."""
    if ncols > 0:
        rows = keys // np.int64(ncols)
        cols = keys % np.int64(ncols)
    else:  # degenerate; no keys can exist
        rows = np.empty(0, dtype=np.int64)
        cols = np.empty(0, dtype=np.int64)
    counts = np.bincount(rows, minlength=nrows) if len(keys) else np.zeros(
        nrows, dtype=np.int64
    )
    indptr = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRView(indptr=indptr, indices=cols, values=values, nrows=nrows, ncols=ncols)


def transpose_permutation(
    keys: np.ndarray, nrows: int, ncols: int
) -> tuple[np.ndarray, np.ndarray]:
    """Keys of the transpose plus the permutation mapping old values to them.

    ``t_keys[p] = transpose(keys)[perm[p]]`` — i.e. ``values[perm]`` is the
    value array of the transposed matrix.  Row-major keys list each
    column's rows in ascending order already, so a stable sort of the
    column ids alone is the permutation that sorts the transposed keys.
    """
    rows = keys // np.int64(ncols)
    cols = keys % np.int64(ncols)
    perm = stable_order(cols, ncols)
    return cols[perm] * np.int64(nrows) + rows[perm], perm
