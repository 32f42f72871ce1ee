"""Merging block partials back into the canonical flat-key stream.

Partials cover disjoint, ascending row windows with absolute keys, so
concatenation in stripe order *is* the globally sorted result.  No
arithmetic happens at merge time, hence bitwise identity for every domain
(the same argument the thread pool's block concat uses).  Reductions
(matrix→vector) are stripes over row ids; vector keys concatenate the same
way.
"""

from __future__ import annotations

import numpy as np

__all__ = ["concat_stripes"]


def concat_stripes(parts, out_dtype) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate (keys, vals) partials of ascending disjoint windows."""
    parts = [p for p in parts if len(p[0])]
    if not parts:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=out_dtype)
    if len(parts) == 1:
        return parts[0][0], parts[0][1]
    keys = np.concatenate([p[0] for p in parts])
    vals = np.concatenate([p[1] for p in parts])
    return keys, vals
