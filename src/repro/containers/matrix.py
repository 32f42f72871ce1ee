"""GraphBLAS matrices (paper section III-A).

``A = <D, M, N, {(i, j, A_ij)}>``: a domain, dimensions, and a set of
row/column/value tuples.  As with vectors, elements not in the content are
*undefined* rather than zero — "a fundamental difference between the
GraphBLAS and traditional sparse matrix libraries".

Storage is :class:`~repro.containers.base.SparseCollection` with the
row-major flat key ``i*ncols + j``.  CSR and CSC views are derived lazily
and cached; any content change drops them.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .. import context
from .._sparseutil import check_flat_capacity, flatten_keys
from ..info import DimensionMismatch, IndexOutOfBounds, InvalidValue
from ..ops.base import BinaryOp
from ..types import GrBType
from .base import SparseCollection
from .formats import CSRView, check_indices, csr_from_keys, transpose_permutation

__all__ = ["Matrix", "matrix_new"]


class Matrix(SparseCollection):
    """An opaque GraphBLAS matrix."""

    __slots__ = ("_csr", "_csc")

    _at = "({}, {})"
    _shape_text = "{}x{}"

    def __init__(self, domain: GrBType, nrows: int, ncols: int, *, name: str = ""):
        super().__init__(domain, (nrows, ncols), name)
        self._csr: CSRView | None = None
        self._csc: CSRView | None = None

    # ------------------------------------------------------ coordinates
    @staticmethod
    def _checked_shape(nrows: int, ncols: int) -> tuple[int, int]:
        if nrows <= 0 or ncols <= 0:
            raise InvalidValue(
                "matrix dimensions must be positive (paper: M > 0, N > 0)"
            )
        check_flat_capacity(nrows, ncols)
        return int(nrows), int(ncols)

    def _key(self, row: int, col: int) -> np.int64:
        i, j = int(row), int(col)
        nrows, ncols = self._shape
        if not 0 <= i < nrows:
            raise IndexOutOfBounds(f"row {row} out of range [0, {nrows})")
        if not 0 <= j < ncols:
            raise IndexOutOfBounds(f"column {col} out of range [0, {ncols})")
        return np.int64(i) * ncols + j

    def _keys_of(self, rows, cols) -> np.ndarray:
        ri = check_indices(rows, self._shape[0], "row")
        ci = check_indices(cols, self._shape[1], "column")
        if len(ri) != len(ci):
            raise DimensionMismatch("row and column index arrays differ in length")
        return flatten_keys(ri, ci, self._shape[1])

    @property
    def nrows(self) -> int:
        """``GrB_Matrix_nrows`` (Table VI)."""
        self._check_valid()
        return self._shape[0]

    @property
    def ncols(self) -> int:
        """``GrB_Matrix_ncols``."""
        self._check_valid()
        return self._shape[1]

    # --------------------------------------------------------- Table VI
    def build(self, rows, cols, values, dup: BinaryOp | None = None) -> "Matrix":
        """``GrB_Matrix_build`` (Table VI): copy tuples into an empty matrix."""
        return self._build((rows, cols), values, dup)

    def set_element(self, row: int, col: int, value: Any) -> "Matrix":
        """``GrB_Matrix_setElement``: A(i, j) = value."""
        return self._set((row, col), value)

    def extract_element(self, row: int, col: int) -> Any:
        """``GrB_Matrix_extractElement``; raises ``NoValue`` if undefined."""
        return self._extract((row, col))

    def remove_element(self, row: int, col: int) -> "Matrix":
        """``GrB_Matrix_removeElement``: delete A(i, j) if present."""
        return self._remove((row, col))

    def resize(self, nrows: int, ncols: int) -> "Matrix":
        """``GrB_Matrix_resize``: change dimensions in place; shrinking
        discards stored elements outside the new bounds."""
        return self._resize((nrows, ncols))

    # ------------------------------------------------------------ views
    def _set_content(self, keys: np.ndarray, values: np.ndarray) -> None:
        super()._set_content(keys, values)
        self._csr = None
        self._csc = None

    def csr(self) -> CSRView:
        """Cached CSR view of the current content (kernel use)."""
        if self._csr is None:
            self._csr = csr_from_keys(self._keys, self._values, *self._shape)
        return self._csr

    def csc(self) -> CSRView:
        """Cached CSC view: the CSR of the transpose."""
        if self._csc is None:
            nrows, ncols = self._shape
            t_keys, perm = transpose_permutation(self._keys, nrows, ncols)
            self._csc = csr_from_keys(t_keys, self._values[perm], ncols, nrows)
        return self._csc

    def _view(self, transpose: bool) -> CSRView:
        """The CSR view of A, or of Aᵀ (the cached CSC) when *transpose*."""
        return self.csc() if transpose else self.csr()

    def _oriented(self, transpose: bool) -> tuple[np.ndarray, np.ndarray]:
        if not transpose:
            return self._keys, self._values
        view = self.csc()  # CSR of Aᵀ: already in Aᵀ's row-major order
        return view.row_ids() * np.int64(view.ncols) + view.indices, view.values

    def cached_view(self, csc: bool) -> CSRView | None:
        """The CSC (``csc=True``) or CSR view if it is already built, else
        None: for a kernel that uses that orientation only while it is free."""
        return self._csc if csc else self._csr

    # ------------------------------------------------------- conveniences
    @classmethod
    def from_coo(
        cls,
        domain: GrBType,
        nrows: int,
        ncols: int,
        rows,
        cols,
        values,
        dup: BinaryOp | None = None,
        *,
        name: str = "",
    ) -> "Matrix":
        """Construct-and-build in one step (convenience, not in the C API)."""
        m = cls(domain, nrows, ncols, name=name)
        m.build(rows, cols, values, dup)
        return m

    @classmethod
    def from_dense(
        cls, domain: GrBType, array, implied_zero: Any = 0, *, name: str = ""
    ) -> "Matrix":
        """Build from a dense 2-D array, storing entries != *implied_zero*."""
        arr = np.asarray(array)
        if arr.ndim != 2:
            raise InvalidValue("from_dense requires a 2-D array")
        rows, cols = np.nonzero(arr != implied_zero)
        return cls.from_coo(
            domain, arr.shape[0], arr.shape[1], rows, cols, arr[rows, cols],
            name=name,
        )

    # --------------------------------------------------- spec 1.3/2.0 extras
    @classmethod
    def diag(cls, v, k: int = 0, *, name: str = "") -> "Matrix":
        """``GrB_Matrix_diag``: a square matrix with *v* on diagonal *k*."""
        from .vector import Vector

        if not isinstance(v, Vector):
            raise InvalidValue("Matrix.diag requires a Vector")
        v._check_valid()
        context.complete(v)
        n = v.size + abs(int(k))
        out = cls(v.type, n, n, name=name)
        idx, vals = v._content()
        if k >= 0:
            rows, cols = idx, idx + k
        else:
            rows, cols = idx - k, idx
        out._set_content(flatten_keys(rows, cols, n), vals.copy())
        return out

    # ------------------------------------------------------- import/export
    def export_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``GrB_Matrix_exportHint CSR``: (indptr, col_indices, values) copies."""
        self._check_valid()
        context.complete(self)
        view = self.csr()
        return view.indptr.copy(), view.indices.copy(), view.values.copy()

    def export_csc(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSC export: (indptr, row_indices, values) copies."""
        self._check_valid()
        context.complete(self)
        view = self.csc()
        return view.indptr.copy(), view.indices.copy(), view.values.copy()

    @classmethod
    def import_csr(
        cls,
        domain: GrBType,
        nrows: int,
        ncols: int,
        indptr,
        col_indices,
        values,
        *,
        name: str = "",
    ) -> "Matrix":
        """``GrB_Matrix_import`` (CSR): adopt raw arrays after validation.

        Column indices must be sorted and unique within each row (the
        canonical CSR the export produces); violations are
        ``GrB_INVALID_VALUE``.
        """
        out = cls(domain, nrows, ncols, name=name)
        indptr = np.asarray(indptr, dtype=np.int64)
        cols = np.asarray(col_indices, dtype=np.int64)
        if len(indptr) != nrows + 1 or indptr[0] != 0 or indptr[-1] != len(cols):
            raise InvalidValue("malformed CSR indptr")
        if np.any(np.diff(indptr) < 0):
            raise InvalidValue("CSR indptr must be nondecreasing")
        if len(cols) and (cols.min() < 0 or cols.max() >= ncols):
            raise IndexOutOfBounds("CSR column index out of range")
        rows = np.repeat(np.arange(nrows, dtype=np.int64), np.diff(indptr))
        return out._adopt(
            flatten_keys(rows, cols, ncols), values,
            "CSR columns must be sorted and unique within each row",
        )


def matrix_new(domain: GrBType, nrows: int, ncols: int, *, name: str = "") -> Matrix:
    """``GrB_Matrix_new`` (Table VI): create an empty matrix."""
    return Matrix(domain, nrows, ncols, name=name)
