"""Write-masks (paper section III-C).

A mask has *structure* but no values: the set of positions where an
operation may write its result.  The C API lets any vector/matrix act as a
mask — "the elements of the boolean write mask that exist and are true"
(section VI) form the structure, after casting stored values to BOOL.  Two
descriptor modifiers change the interpretation:

* ``GrB_SCMP`` — use the structural complement ``L(¬m) = {i : i ∉ L(m)}``;
* ``GrB_STRUCTURE`` (extension) — every *stored* element is in the
  structure, regardless of its value.

The complement of a sparse mask is dense, so it is never materialized:
:class:`MaskView` keeps the base pattern plus the complement flag and
answers membership queries lazily, from a bitmap over the pattern's key
range that it builds at most once, when that range is within bound.
"""

from __future__ import annotations

import numpy as np

from .._sparseutil import _search, bitmap, probe
from ..info import DomainMismatch
from ..types import BOOL, cast_array

__all__ = ["MaskView", "build_mask_view", "validate_mask_domain"]


class MaskView:
    """Lazy view of a mask's structure (possibly complemented)."""

    __slots__ = ("pattern", "complemented", "_bitmap")

    def __init__(self, pattern: np.ndarray, complemented: bool):
        self.pattern = pattern
        self.complemented = complemented
        self._bitmap = None

    def allows(self, keys: np.ndarray) -> np.ndarray:
        """Boolean array: which *keys* lie in the mask's structure.

        A view lives for one op, so the bitmap the first large enough
        lookup builds serves every later one: SpGEMM's push-down blocks and
        the write step's test of C share it.  Concurrent blocks may each
        build one; the tables are equal, so whichever is kept answers the
        same."""
        if self._bitmap is None:
            self._bitmap = bitmap(self.pattern, len(keys))
        if self._bitmap is None:
            base = _search(keys, self.pattern)
        else:
            base = probe(self._bitmap, keys)
        return ~base if self.complemented else base

    def restrict(self, keys: np.ndarray, *arrays: np.ndarray) -> tuple:
        """*keys* and their parallel *arrays*, cut down to the entries the
        mask allows — how a source of T hands T over inside the mask.  The
        inputs come back unchanged when every key is allowed."""
        keep = self.allows(keys)
        if keep.all():
            return (keys, *arrays)
        return (keys[keep], *(a[keep] for a in arrays))

    def count_allowed_in(self, total_space: int) -> int:
        """|structure| within a space of *total_space* positions."""
        n = len(self.pattern)
        return total_space - n if self.complemented else n


def validate_mask_domain(mask) -> None:
    """API check: the mask's domain must be bool or any built-in type
    (Fig. 2b's Mask parameter description)."""
    if mask is None:
        return
    if mask.type.is_udt:
        raise DomainMismatch(
            "mask domain must be bool or a built-in GraphBLAS type, got "
            f"{mask.type.name}"
        )


def build_mask_view(mask, complemented: bool, structural: bool) -> MaskView | None:
    """Materialize the mask's structure from its *current* content.

    Must run at execution time (inside the deferred thunk), since in
    nonblocking mode the mask object's content may be produced by an earlier
    op in the same sequence.  Returns ``None`` for "no mask".
    """
    if mask is None:
        return None
    keys, values = mask._content()
    if structural:
        pattern = keys
    else:
        truthy = cast_array(values, mask.type, BOOL)
        pattern = keys[truthy] if len(keys) else keys
    return MaskView(pattern, complemented)
