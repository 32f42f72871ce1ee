"""GraphBLAS matrices (paper section III-A).

``A = <D, M, N, {(i, j, A_ij)}>``: a domain, dimensions, and a set of
row/column/value tuples.  As with vectors, elements not in the content are
*undefined* rather than zero — "a fundamental difference between the
GraphBLAS and traditional sparse matrix libraries".

Storage: sorted row-major flat keys ``i*ncols + j`` plus parallel values.
CSR and CSC views are derived lazily and cached; any mutation invalidates
the caches.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from .. import context
from .._sparseutil import check_flat_capacity, flatten_keys, unflatten_keys
from ..info import (
    DimensionMismatch,
    IndexOutOfBounds,
    InvalidValue,
    NoValue,
    NullPointer,
    OutputNotEmpty,
)
from ..ops.base import BinaryOp
from ..types import GrBType
from .base import OpaqueObject
from .formats import (
    CSRView,
    DCSRView,
    assemble,
    check_indices,
    csr_from_keys,
    dcsr_from_keys,
    transpose_permutation,
)

__all__ = ["Matrix", "matrix_new"]


class Matrix(OpaqueObject):
    """An opaque GraphBLAS matrix."""

    __slots__ = (
        "_type", "_nrows", "_ncols", "_keys", "_values", "_csr", "_csc",
        "_dcsr",
    )

    def __init__(self, domain: GrBType, nrows: int, ncols: int, *, name: str = ""):
        super().__init__(name)
        if domain is None:
            raise NullPointer("matrix domain is GrB_NULL")
        if not isinstance(domain, GrBType):
            raise InvalidValue(f"{domain!r} is not a GraphBLAS type")
        if nrows <= 0 or ncols <= 0:
            raise InvalidValue(
                "matrix dimensions must be positive (paper: M > 0, N > 0)"
            )
        check_flat_capacity(nrows, ncols)
        self._type = domain
        self._nrows = int(nrows)
        self._ncols = int(ncols)
        self._keys = np.empty(0, dtype=np.int64)
        self._values = np.empty(0, dtype=domain.np_dtype)
        self._csr: CSRView | None = None
        self._csc: CSRView | None = None
        self._dcsr: DCSRView | None = None

    # ------------------------------------------------------------ metadata
    @property
    def type(self) -> GrBType:
        self._check_valid()
        return self._type

    @property
    def nrows(self) -> int:
        """``GrB_Matrix_nrows`` (Table VI)."""
        self._check_valid()
        return self._nrows

    @property
    def ncols(self) -> int:
        """``GrB_Matrix_ncols``."""
        self._check_valid()
        return self._ncols

    @property
    def shape(self) -> tuple[int, int]:
        self._check_valid()
        return (self._nrows, self._ncols)

    def nvals(self) -> int:
        """``GrB_Matrix_nvals``: |L(A)|.  Forces completion (Fig. 3 line 44
        uses exactly this to detect an empty BFS frontier)."""
        self._check_valid()
        context.complete(self)
        return len(self._keys)

    # ------------------------------------------------------------- content
    def _content(self) -> tuple[np.ndarray, np.ndarray]:
        """Raw flat keys/values (kernel use at execution time)."""
        return self._keys, self._values

    def _set_content(self, keys: np.ndarray, values: np.ndarray) -> None:
        self._keys = keys
        self._values = values
        self._csr = None
        self._csc = None
        self._dcsr = None
        self._poisoned = False

    def csr(self) -> CSRView:
        """Cached CSR view of the current content (kernel use)."""
        if self._csr is None:
            self._csr = csr_from_keys(
                self._keys, self._values, self._nrows, self._ncols
            )
        return self._csr

    def csc(self) -> CSRView:
        """Cached CSC view: the CSR of the transpose."""
        if self._csc is None:
            t_keys, perm = transpose_permutation(
                self._keys, self._nrows, self._ncols
            )
            self._csc = csr_from_keys(
                t_keys, self._values[perm], self._ncols, self._nrows
            )
        return self._csc

    def cached_view(self, csc: bool) -> CSRView | None:
        """The CSC (``csc=True``) or CSR view if it is already built, else
        None: for a kernel that uses that orientation only while it is free."""
        return self._csc if csc else self._csr

    def dcsr(self) -> DCSRView:
        """Cached hypersparse DCSR view: only non-empty rows are stored."""
        if self._dcsr is None:
            self._dcsr = dcsr_from_keys(
                self._keys, self._values, self._nrows, self._ncols
            )
        return self._dcsr

    def build(self, rows, cols, values, dup: BinaryOp | None = None) -> "Matrix":
        """``GrB_Matrix_build`` (Table VI): copy tuples into an empty matrix."""
        self._check_valid()
        ri = check_indices(rows, self._nrows, "row")
        ci = check_indices(cols, self._ncols, "column")
        if len(ri) != len(ci):
            raise DimensionMismatch("row and column index arrays differ in length")
        vals = self._coerce_values(values, len(ri))
        if self.nvals() != 0:
            raise OutputNotEmpty("build target matrix already has elements")
        keys = flatten_keys(ri, ci, self._ncols)

        def thunk():
            k, v = assemble(keys, vals, dup, self._type.np_dtype)
            self._set_content(k, v)

        context.submit(
            thunk, reads=(), writes=self, label="Matrix_build", deferrable=False
        )
        return self

    def _coerce_values(self, values, n: int) -> np.ndarray:
        if self._type.is_udt:
            seq = list(values)
            if len(seq) != n:
                raise DimensionMismatch("index and value arrays differ in length")
            vals = np.empty(n, dtype=object)
            for k, v in enumerate(seq):
                vals[k] = self._type.validate_scalar(v)
            return vals
        vals = np.asarray(values)
        if vals.ndim == 0:
            vals = np.broadcast_to(vals, (n,))
        if len(vals) != n:
            raise DimensionMismatch("index and value arrays differ in length")
        return vals.astype(self._type.np_dtype, copy=True)

    def set_element(self, row: int, col: int, value: Any) -> "Matrix":
        """``GrB_Matrix_setElement``: A(i, j) = value."""
        self._check_valid()
        i, j = self._check_coords(row, col)
        if self._type.is_udt:
            self._type.validate_scalar(value)
        key = np.int64(i) * self._ncols + j

        def thunk():
            v = (
                value
                if self._type.is_udt
                else np.asarray([value]).astype(self._type.np_dtype)[0]
            )
            pos = int(np.searchsorted(self._keys, key))
            if pos < len(self._keys) and self._keys[pos] == key:
                self._values[pos] = v
                self._csr = None
                self._csc = None
                self._dcsr = None
            else:
                self._set_content(
                    np.insert(self._keys, pos, key),
                    np.insert(self._values, pos, v),
                )

        context.submit(
            thunk, reads=(self,), writes=self, label="Matrix_setElement",
            deferrable=False,
        )
        return self

    def extract_element(self, row: int, col: int) -> Any:
        """``GrB_Matrix_extractElement``; raises ``NoValue`` if undefined."""
        self._check_valid()
        i, j = self._check_coords(row, col)
        context.complete(self)
        key = np.int64(i) * self._ncols + j
        pos = int(np.searchsorted(self._keys, key))
        if pos < len(self._keys) and self._keys[pos] == key:
            return self._values[pos]
        raise NoValue(f"no element stored at ({row}, {col})")

    def remove_element(self, row: int, col: int) -> "Matrix":
        """``GrB_Matrix_removeElement``: delete A(i, j) if present."""
        self._check_valid()
        i, j = self._check_coords(row, col)
        key = np.int64(i) * self._ncols + j

        def thunk():
            pos = int(np.searchsorted(self._keys, key))
            if pos < len(self._keys) and self._keys[pos] == key:
                self._set_content(
                    np.delete(self._keys, pos), np.delete(self._values, pos)
                )

        context.submit(
            thunk, reads=(self,), writes=self, label="Matrix_removeElement",
            deferrable=False,
        )
        return self

    def extract_tuples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``GrB_Matrix_extractTuples``: (I, J, X) copies; forces completion."""
        self._check_valid()
        context.complete(self)
        rows, cols = unflatten_keys(self._keys, self._ncols)
        return rows, cols, self._values.copy()

    def clear(self) -> "Matrix":
        """``GrB_Matrix_clear``: drop all stored elements (dims unchanged)."""
        self._check_valid()

        def thunk():
            self._set_content(
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=self._type.np_dtype),
            )

        context.submit(
            thunk, reads=(), writes=self, label="Matrix_clear",
            overwrites_output=True,
        )
        return self

    def dup(self) -> "Matrix":
        """``GrB_Matrix_dup``: independent deep copy."""
        self._check_valid()
        context.complete(self)
        out = Matrix(self._type, self._nrows, self._ncols, name=f"dup({self.name})")
        out._set_content(self._keys.copy(), self._values.copy())
        return out

    # ------------------------------------------------------- conveniences
    def _check_coords(self, row: int, col: int) -> tuple[int, int]:
        i, j = int(row), int(col)
        if not 0 <= i < self._nrows:
            raise IndexOutOfBounds(f"row {row} out of range [0, {self._nrows})")
        if not 0 <= j < self._ncols:
            raise IndexOutOfBounds(f"column {col} out of range [0, {self._ncols})")
        return i, j

    def __iter__(self) -> Iterator[tuple[int, int, Any]]:
        self._check_valid()
        context.complete(self)
        rows, cols = unflatten_keys(self._keys, self._ncols)
        return iter(
            (int(r), int(c), v) for r, c, v in zip(rows, cols, self._values)
        )

    def to_dense(self, fill: Any) -> np.ndarray:
        """Dense export with explicit *fill* for undefined elements."""
        self._check_valid()
        context.complete(self)
        dtype = self._type.np_dtype if not self._type.is_udt else object
        out = np.full((self._nrows, self._ncols), fill, dtype=dtype)
        if len(self._keys):
            rows, cols = unflatten_keys(self._keys, self._ncols)
            out[rows, cols] = self._values
        return out

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
    def resize(self, nrows: int, ncols: int) -> "Matrix":
        """``GrB_Matrix_resize``: change dimensions in place.

        Shrinking discards stored elements outside the new bounds; growing
        keeps everything.  Flat keys are re-encoded for the new column
        count.
        """
        self._check_valid()
        if nrows <= 0 or ncols <= 0:
            raise InvalidValue("matrix dimensions must be positive")
        check_flat_capacity(nrows, ncols)
        context.complete(self)
        rows, cols = unflatten_keys(self._keys, self._ncols)
        keep = (rows < nrows) & (cols < ncols)
        new_keys = flatten_keys(rows[keep], cols[keep], ncols)
        # row-major order is preserved under pure re-encoding of in-bounds
        # keys, so no re-sort is needed
        self._nrows, self._ncols = int(nrows), int(ncols)
        self._set_content(new_keys, self._values[keep])
        return self

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
        keys = flatten_keys(rows, cols, ncols)
        if np.any(np.diff(keys) <= 0):
            raise InvalidValue(
                "CSR columns must be sorted and unique within each row"
            )
        vals = out._coerce_values(values, len(cols))
        out._set_content(keys, vals)
        return out

    def __repr__(self) -> str:
        state = "freed" if self._freed else ("invalid" if self._poisoned else "ok")
        return (
            f"Matrix<{self._type.name}, {self._nrows}x{self._ncols}, "
            f"nvals={len(self._keys)}, {state}>"
        )


def matrix_new(domain: GrBType, nrows: int, ncols: int, *, name: str = "") -> Matrix:
    """``GrB_Matrix_new`` (Table VI): create an empty matrix."""
    return Matrix(domain, nrows, ncols, name=name)
