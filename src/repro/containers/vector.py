"""GraphBLAS vectors (paper section III-A).

``v = <D, N, {(i, v_i)}>``: a domain, a size, and a set of index/value
tuples.  Indices not present in the content are *undefined* — not zero;
that distinction (no implied zeros stored) is what lets the semiring change
between operations without reinterpreting the stored data (section II).

Storage is :class:`~repro.containers.base.SparseCollection` with the
index itself as the key.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .. import context
from .._sparseutil import membership
from ..info import IndexOutOfBounds, InvalidValue
from ..ops.base import BinaryOp
from ..types import GrBType
from .base import SparseCollection
from .formats import check_indices

__all__ = ["Vector", "vector_new"]


class Vector(SparseCollection):
    """An opaque GraphBLAS vector."""

    __slots__ = ()

    _at = "index {}"
    _shape_text = "size={}"

    def __init__(self, domain: GrBType, size: int, *, name: str = ""):
        super().__init__(domain, (size,), name)

    # ------------------------------------------------------ coordinates
    @staticmethod
    def _checked_shape(size: int) -> tuple[int]:
        if size <= 0:
            raise InvalidValue("vector size must be positive (paper: N > 0)")
        return (int(size),)

    def _key(self, index: int) -> int:
        i = int(index)
        if not 0 <= i < self._shape[0]:
            raise IndexOutOfBounds(
                f"index {index} out of range for vector of size {self._shape[0]}"
            )
        return i

    def _keys_of(self, indices) -> np.ndarray:
        return check_indices(indices, self._shape[0], "vector")

    @property
    def size(self) -> int:
        """``GrB_Vector_size``: the paper's nelem(v) = N."""
        self._check_valid()
        return self._shape[0]

    # --------------------------------------------------------- Table VI
    def build(self, indices, values, dup: BinaryOp | None = None) -> "Vector":
        """``GrB_Vector_build``: copy tuples into an empty vector."""
        return self._build((indices,), values, dup)

    def set_element(self, index: int, value: Any) -> "Vector":
        """``GrB_Vector_setElement``: v(i) = value (insert or overwrite)."""
        return self._set((index,), value)

    def extract_element(self, index: int) -> Any:
        """``GrB_Vector_extractElement``: return v(i).

        Raises :class:`~repro.info.NoValue` when no element is stored at *i*
        (the C API's ``GrB_NO_VALUE`` informational code).
        """
        return self._extract((index,))

    def remove_element(self, index: int) -> "Vector":
        """``GrB_Vector_removeElement``: delete v(i) if present."""
        return self._remove((index,))

    def resize(self, size: int) -> "Vector":
        """``GrB_Vector_resize``: change the size in place; shrinking
        discards stored elements past the new bound."""
        return self._resize((size,))

    def __contains__(self, index: int) -> bool:
        self._check_valid()
        context.complete(self)
        return bool(membership(np.asarray([int(index)]), self._keys)[0])

    @classmethod
    def from_coo(
        cls,
        domain: GrBType,
        size: int,
        indices,
        values,
        dup: BinaryOp | None = None,
        *,
        name: str = "",
    ) -> "Vector":
        """Construct-and-build in one step (convenience, not in the C API)."""
        v = cls(domain, size, name=name)
        v.build(indices, values, dup)
        return v

    @classmethod
    def from_dense(
        cls, domain: GrBType, array, implied_zero: Any = 0, *, name: str = ""
    ) -> "Vector":
        """Build from a dense array, storing only entries != *implied_zero*."""
        arr = np.asarray(array)
        keep = np.nonzero(arr != implied_zero)[0]
        return cls.from_coo(domain, len(arr), keep, arr[keep], name=name)

    # --------------------------------------------------- spec 1.3/2.0 extras
    @classmethod
    def from_diag(cls, A, k: int = 0, *, name: str = "") -> "Vector":
        """``GxB_Vector_diag``: extract diagonal *k* of a matrix."""
        from .matrix import Matrix

        if not isinstance(A, Matrix):
            raise InvalidValue("from_diag requires a Matrix")
        A._check_valid()
        context.complete(A)
        keys, vals = A._content()
        rows, cols = A._coords(keys)
        on_diag = cols == rows + k
        if k >= 0:
            size = min(A.nrows, A.ncols - k)
            idx = rows[on_diag]
        else:
            size = min(A.nrows + k, A.ncols)
            idx = cols[on_diag]
        if size <= 0:
            raise InvalidValue(f"diagonal {k} is outside the matrix")
        out = cls(A.type, size, name=name)
        out._set_content(idx.astype(np.int64), vals[on_diag].copy())
        return out

    def export_sparse(self) -> tuple[np.ndarray, np.ndarray]:
        """Export: (indices, values) copies of the stored content."""
        return self.extract_tuples()

    @classmethod
    def import_sparse(
        cls, domain: GrBType, size: int, indices, values, *, name: str = ""
    ) -> "Vector":
        """Adopt raw sorted-unique index/value arrays after validation."""
        out = cls(domain, size, name=name)
        idx = np.array(indices, dtype=np.int64)  # the caller keeps its array
        if len(idx) and (idx.min() < 0 or idx.max() >= size):
            raise IndexOutOfBounds("vector index out of range")
        return out._adopt(idx, values, "indices must be sorted and unique")


def vector_new(domain: GrBType, size: int, *, name: str = "") -> Vector:
    """``GrB_Vector_new`` (Table VI): create an empty vector."""
    return Vector(domain, size, name=name)
