"""EdgeDelta: the exact record of one flushed edge batch.

A delta is computed *inside* the deferred rebuild kernel — after every
hazard-ordered predecessor has run — so it describes the transition from
the true pre-flush content to the post-flush content, never a stale
intermediate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["EdgeDelta"]


@dataclass(frozen=True)
class EdgeDelta:
    """Edge-level diff of one flush against the pre-flush matrix.

    All arrays are parallel over the set of *materially changed* edges
    (no-op writes — setting an edge to its existing value, removing an
    absent edge — are filtered out).  ``old_mask[k]`` / ``new_mask[k]``
    say whether edge ``(rows[k], cols[k])`` existed before / after;
    ``old_values`` / ``new_values`` are meaningful only where the
    corresponding mask is True.
    """

    nrows: int
    ncols: int
    rows: np.ndarray  # int64
    cols: np.ndarray  # int64
    old_mask: np.ndarray  # bool
    old_values: np.ndarray
    new_mask: np.ndarray  # bool
    new_values: np.ndarray
    #: nnz of the matrix before the flush
    base_nnz: int

    # ------------------------------------------------------------- shape
    @property
    def size(self) -> int:
        """Number of changed edges."""
        return len(self.rows)

    # ----------------------------------------------------------- subsets
    @property
    def added(self) -> np.ndarray:
        """Positions of edges that did not exist before and do now."""
        return np.nonzero(~self.old_mask & self.new_mask)[0]

    @property
    def removed(self) -> np.ndarray:
        """Positions of edges that existed before and no longer do."""
        return np.nonzero(self.old_mask & ~self.new_mask)[0]

    @property
    def changed(self) -> np.ndarray:
        """Positions of edges present on both sides with a new value."""
        return np.nonzero(self.old_mask & self.new_mask)[0]

    def is_empty(self) -> bool:
        return self.size == 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<EdgeDelta {self.size} edges "
            f"(+{len(self.added)} -{len(self.removed)} "
            f"~{len(self.changed)}) over base nnz={self.base_nnz}>"
        )
