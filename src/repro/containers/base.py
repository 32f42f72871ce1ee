"""Opaque-object plumbing shared by collections.

GraphBLAS collections are opaque: their content is reachable only through
API methods, which lets implementations pick storage freely (section III-A).
:class:`OpaqueObject` carries the lifecycle states every opaque object has:

* *valid* — usable;
* *freed* — after ``free()``; any use is ``UNINITIALIZED_OBJECT``;
* *poisoned* — a deferred op that was supposed to produce this object's
  value failed; any use is ``INVALID_OBJECT`` ("caused by a previous
  execution error", Fig. 2c).

:class:`SparseCollection` is the one store behind ``Matrix`` and
``Vector``: section III-A defines both as a domain, dimensions, and a set
of index/value tuples, so every Table VI method is written here once, over
keys.
"""

from __future__ import annotations

import math
from typing import Any, Iterator

import numpy as np

from .. import context
from .._sparseutil import join_keys, split_keys, strictly_increasing
from ..info import (
    DimensionMismatch,
    InvalidObject,
    InvalidValue,
    NoValue,
    NullPointer,
    OutputNotEmpty,
    UninitializedObject,
)
from ..ops.base import BinaryOp
from ..types import GrBType
from .formats import assemble

__all__ = ["OpaqueObject", "SparseCollection"]


class OpaqueObject:
    __slots__ = ("_freed", "_poisoned", "name")

    def __init__(self, name: str = ""):
        self._freed = False
        self._poisoned = False
        self.name = name

    def _check_valid(self) -> None:
        if self._freed:
            raise UninitializedObject(
                f"{type(self).__name__} {self.name or ''} has been freed"
            )
        if self._poisoned:
            raise InvalidObject(
                f"{type(self).__name__} {self.name or ''} is invalid: a prior "
                "execution error prevented its value from being computed"
            )

    def _poison(self) -> None:
        self._poisoned = True

    def free(self) -> None:
        """``GrB_free``: release the object; subsequent use is an API error.

        If a deferred op in the current sequence still references this
        object, the sequence is completed first (the paper's Fig. 3 frees
        its temporaries without an intervening ``GrB_wait``; that must be
        legal in nonblocking mode too).
        """
        context.complete_before_free(self)
        self._freed = True


class SparseCollection(OpaqueObject):
    """A domain, a shape, and a sorted, duplicate-free ``int64`` key array
    with a parallel value array in the domain's storage dtype.

    Elements not stored are *undefined*, not zero.  A key is the row-major
    position of a coordinate in the shape: a vector's key is the index
    itself, a matrix's is ``i*ncols + j``.  ``_coords(keys)`` /
    ``_flatten(coords)`` map keys to coordinate arrays and back (a vector's
    keys are returned uncopied).  Operations read a collection as X or, for
    a descriptor's transpose bit, as Xᵀ through ``_oriented_shape`` and
    ``_oriented``; Xᵀ of a vector is the vector.  A subclass supplies:

    * ``_checked_shape(*dims)`` — validated dimensions as a tuple of ints;
    * ``_key(*coords)`` — the key of one coordinate, bounds-checked;
    * ``_keys_of(*index_arrays)`` — the keys of user index arrays, checked;
    * ``_at`` / ``_shape_text`` — format strings for a coordinate and the
      shape in messages.

    ``Matrix`` and ``Vector`` keep the C API's signatures for ``build``,
    ``set_element``, ``extract_element``, ``remove_element`` and ``resize``
    and call the one body of each here (``_build``, ``_set``, ``_extract``,
    ``_remove``, ``_resize``).
    """

    __slots__ = ("_type", "_shape", "_keys", "_values")

    def __init__(self, domain: GrBType, dims: tuple, name: str):
        super().__init__(name)
        if domain is None:
            raise NullPointer(f"{type(self).__name__.lower()} domain is GrB_NULL")
        if not isinstance(domain, GrBType):
            raise InvalidValue(f"{domain!r} is not a GraphBLAS type")
        self._shape = self._checked_shape(*dims)
        self._type = domain
        self._keys = np.empty(0, dtype=np.int64)
        self._values = np.empty(0, dtype=domain.np_dtype)

    # ------------------------------------------------------------ metadata
    @property
    def type(self) -> GrBType:
        """The collection's domain D."""
        self._check_valid()
        return self._type

    @property
    def shape(self) -> tuple[int, ...]:
        """``(nrows, ncols)`` of a matrix, ``(size,)`` of a vector."""
        self._check_valid()
        return self._shape

    def nvals(self) -> int:
        """``GrB_Matrix_nvals`` / ``GrB_Vector_nvals``: the number of stored
        tuples.  Forces completion (Fig. 3 line 44 uses exactly this to
        detect an empty BFS frontier)."""
        self._check_valid()
        context.complete(self)
        return len(self._keys)

    # ------------------------------------------------------------- content
    def _content(self) -> tuple[np.ndarray, np.ndarray]:
        """Raw keys/values (kernel use at execution time; no completion)."""
        return self._keys, self._values

    def _coords(self, keys: np.ndarray) -> tuple[np.ndarray, ...]:
        return split_keys(keys, self._shape)

    def _flatten(self, coords) -> np.ndarray:
        return join_keys(coords, self._shape)

    def _oriented_shape(self, transpose: bool) -> tuple[int, ...]:
        """The shape of X, or of Xᵀ when *transpose*."""
        return self._shape[::-1] if transpose else self._shape

    def _oriented(self, transpose: bool) -> tuple[np.ndarray, np.ndarray]:
        """Keys/values of X, or of Xᵀ when *transpose*: sorted keys,
        row-major over :meth:`_oriented_shape` (kernel use)."""
        return self._keys, self._values

    def _set_content(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Install canonical content (sorted unique keys, storage dtype)."""
        self._keys = keys
        self._values = values
        self._poisoned = False

    def _coerce_values(self, values, n: int) -> np.ndarray:
        """*values* (a sequence, an array, or one scalar for all *n*) as a
        fresh array in the storage dtype."""
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

    def _adopt(self, keys: np.ndarray, values, unsorted: str):
        """Install imported *keys*, which must already be sorted and unique
        (``InvalidValue(unsorted)`` otherwise).  The store takes ownership
        of *keys*; a caller that keeps using its array passes a copy.  The
        values are copied."""
        if not strictly_increasing(keys):
            raise InvalidValue(unsorted)
        self._set_content(
            np.asarray(keys, dtype=np.int64), self._coerce_values(values, len(keys))
        )
        return self

    def _find(self, key) -> tuple[int, bool]:
        """Where *key* is, or would be inserted, in the stored keys, and
        whether it is stored."""
        pos = int(np.searchsorted(self._keys, key))
        return pos, pos < len(self._keys) and bool(self._keys[pos] == key)

    def _edit(self, edit, name: str) -> None:
        """Run *edit* on the content once every queued op has run (a
        non-deferrable reader and writer of this object, so program order
        holds both ways).

        If a queued op that writes this object failed in that drain, the
        object stays invalid and *edit* is skipped: an edit of a value that
        could not be computed must not make it valid again (Fig. 2c).
        """

        def thunk():
            if not self._poisoned:
                edit()

        context.submit(
            thunk, reads=(self,), writes=self,
            label=f"{type(self).__name__}_{name}", deferrable=False,
        )

    # ----------------------------------------------------- Table VI bodies
    def _build(self, index: tuple, values, dup: BinaryOp | None):
        """``build``: copy tuples into an empty collection.

        Duplicates are combined with *dup*; without one they are an error.
        The target must hold no stored elements (``OUTPUT_NOT_EMPTY``).
        """
        self._check_valid()
        keys = self._keys_of(*index)
        vals = self._coerce_values(values, len(keys))
        kind = type(self).__name__
        if self.nvals() != 0:
            raise OutputNotEmpty(f"build target {kind.lower()} already has elements")

        def thunk():
            self._set_content(*assemble(keys, vals, dup, self._type.np_dtype))

        context.submit(
            thunk, reads=(), writes=self, label=f"{kind}_build", deferrable=False
        )
        return self

    def _set(self, coords: tuple, value):
        """``setElement``: insert or overwrite one element."""
        self._check_valid()
        key = self._key(*coords)
        udt = self._type.is_udt
        val = self._type.validate_scalar(value) if udt else None

        def edit():
            v = val if udt else np.asarray([value]).astype(self._type.np_dtype)[0]
            pos, hit = self._find(key)
            if hit:
                self._values[pos] = v
                self._set_content(self._keys, self._values)  # drops views
            else:
                self._set_content(
                    np.insert(self._keys, pos, key),
                    np.insert(self._values, pos, v),
                )

        self._edit(edit, "setElement")
        return self

    def _extract(self, coords: tuple) -> Any:
        """``extractElement``; raises :class:`~repro.info.NoValue` when
        nothing is stored there (the C API's ``GrB_NO_VALUE``)."""
        self._check_valid()
        key = self._key(*coords)
        context.complete(self)
        pos, hit = self._find(key)
        if hit:
            return self._values[pos]
        raise NoValue("no element stored at " + self._at.format(*coords))

    def _remove(self, coords: tuple):
        """``removeElement``: delete the element if present."""
        self._check_valid()
        key = self._key(*coords)

        def edit():
            pos, hit = self._find(key)
            if hit:
                self._set_content(
                    np.delete(self._keys, pos), np.delete(self._values, pos)
                )

        self._edit(edit, "removeElement")
        return self

    def _resize(self, dims: tuple):
        """``resize``: change the dimensions in place.

        Shrinking discards stored elements outside the new bounds; growing
        keeps everything.  Kept keys are re-encoded for the new shape, which
        preserves their order.  An execution error in a queued op that
        defines this object is raised here, as by any completion; the body
        then runs after every queued op, so a deferred op that reads this
        object sees the old content.
        """
        self._check_valid()
        shape = self._checked_shape(*dims)
        context.complete(self)

        def edit():
            coords = self._coords(self._keys)
            keep = np.logical_and.reduce([c < d for c, d in zip(coords, shape)])
            self._shape = shape
            self._set_content(
                self._flatten([c[keep] for c in coords]), self._values[keep]
            )

        self._edit(edit, "resize")
        return self

    def extract_tuples(self) -> tuple[np.ndarray, ...]:
        """``GrB_Matrix_extractTuples`` -> (I, J, X) /
        ``GrB_Vector_extractTuples`` -> (I, X): copies of the content.

        Forces completion (section IV: methods that output non-opaque
        objects may not defer).
        """
        self._check_valid()
        context.complete(self)
        coords = self._coords(self._keys)
        # a vector's coordinates are its stored keys: hand out a copy
        return (
            *(c.copy() if c is self._keys else c for c in coords),
            self._values.copy(),
        )

    def clear(self):
        """``GrB_Matrix_clear`` / ``GrB_Vector_clear``: drop every stored
        element (dimensions unchanged)."""
        self._check_valid()

        def thunk():
            self._set_content(
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=self._type.np_dtype),
            )

        context.submit(
            thunk, reads=(), writes=self, label=f"{type(self).__name__}_clear",
            overwrites_output=True,
        )
        return self

    def dup(self):
        """``GrB_Matrix_dup`` / ``GrB_Vector_dup``: an independent copy."""
        self._check_valid()
        context.complete(self)
        out = type(self)(self._type, *self._shape, name=f"dup({self.name})")
        out._set_content(self._keys.copy(), self._values.copy())
        return out

    # ------------------------------------------------------- conveniences
    def __iter__(self) -> Iterator[tuple]:
        """``(i, j, value)`` / ``(i, value)`` tuples in key order."""
        self._check_valid()
        context.complete(self)
        coords = [c.tolist() for c in self._coords(self._keys)]
        return zip(*coords, self._values)

    def to_dense(self, fill: Any) -> np.ndarray:
        """Dense export, writing *fill* where nothing is stored.

        The fill value is mandatory: per the paper, missing elements are
        *undefined*, so the caller must pick the implied value that matches
        the semiring in use.  Row-major keys are flat positions, so a matrix
        is one flat fill reshaped.
        """
        self._check_valid()
        context.complete(self)
        dtype = object if self._type.is_udt else self._type.np_dtype
        out = np.full(math.prod(self._shape), fill, dtype=dtype)
        out[self._keys] = self._values
        return out.reshape(self._shape)

    def __repr__(self) -> str:
        state = "freed" if self._freed else ("invalid" if self._poisoned else "ok")
        return (
            f"{type(self).__name__}<{self._type.name}, "
            f"{self._shape_text.format(*self._shape)}, "
            f"nvals={len(self._keys)}, {state}>"
        )
