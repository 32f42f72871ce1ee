"""Block layout descriptors: how a CSR lives in shared memory.

A published matrix is one shared-memory segment holding its CSR triple
(``indptr`` | ``indices`` | ``values``, packed back to back) plus a
:class:`BlockLayout` — a small picklable descriptor carrying the segment
name and the array offsets/dtypes.  Tasks ship the *descriptor* and their
own row window; the data crosses the process boundary exactly once,
through the kernel page cache.

Stripes are row *ranges over the one shared CSR*, not physically re-tiled
copies.  Workers slice by offset, which keeps publication O(nnz) and keeps
stripe results bitwise identical to the serial kernel (same arrays, same
row slices, same folds — exactly the thread-pool path's concatenation
argument).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..containers.formats import CSRView
from .shm import ShmRegistry, attach

__all__ = ["BlockLayout", "publish_csr", "attach_csr"]


@dataclass(frozen=True)
class BlockLayout:
    """Picklable descriptor of one CSR held in a shared-memory segment."""

    seg_name: str
    nrows: int
    ncols: int
    nnz: int
    #: numpy dtype string of the value array (never object — UDTs are
    #: unshippable and gated out before publication)
    values_dtype: str

    # packed segment offsets (bytes)
    @property
    def indptr_bytes(self) -> int:
        return (self.nrows + 1) * 8

    @property
    def indices_bytes(self) -> int:
        return self.nnz * 8

    @property
    def values_bytes(self) -> int:
        return self.nnz * np.dtype(self.values_dtype).itemsize

    @property
    def total_bytes(self) -> int:
        return self.indptr_bytes + self.indices_bytes + self.values_bytes


def publish_csr(view: CSRView, registry: ShmRegistry) -> BlockLayout:
    """Copy *view* into one new shared segment; returns its layout.

    The caller (publication cache) owns the create-time lease.
    """
    vdtype = view.values.dtype
    layout = BlockLayout(
        seg_name="",  # placeholder; rebuilt below with the real name
        nrows=view.nrows,
        ncols=view.ncols,
        nnz=view.nnz,
        values_dtype=vdtype.str,
    )
    seg = registry.create(layout.total_bytes)
    buf = seg.buf
    o = 0
    for arr, dt in (
        (view.indptr, np.dtype(np.int64)),
        (view.indices, np.dtype(np.int64)),
        (view.values, vdtype),
    ):
        n = len(arr) * dt.itemsize
        dst = np.ndarray(len(arr), dtype=dt, buffer=buf, offset=o)
        dst[:] = arr
        o += n
    return BlockLayout(
        seg_name=seg.name,
        nrows=view.nrows,
        ncols=view.ncols,
        nnz=view.nnz,
        values_dtype=vdtype.str,
    )


def attach_csr(layout: BlockLayout, cache: dict) -> CSRView:
    """Worker-side: map *layout* back into a :class:`CSRView`.

    *cache* maps segment name → ``(SharedMemory, CSRView)`` so repeated
    tasks against the same publication reuse one mapping; entries are
    closed when the parent broadcasts a free (see :mod:`.worker`).  The
    returned arrays alias the shared buffer and MUST be treated read-only.
    """
    hit = cache.get(layout.seg_name)
    if hit is not None:
        return hit[1]
    seg = attach(layout.seg_name)
    buf = seg.buf
    indptr = np.ndarray(
        layout.nrows + 1, dtype=np.int64, buffer=buf, offset=0
    )
    indices = np.ndarray(
        layout.nnz, dtype=np.int64, buffer=buf, offset=layout.indptr_bytes
    )
    values = np.ndarray(
        layout.nnz,
        dtype=np.dtype(layout.values_dtype),
        buffer=buf,
        offset=layout.indptr_bytes + layout.indices_bytes,
    )
    view = CSRView(
        indptr=indptr,
        indices=indices,
        values=values,
        nrows=layout.nrows,
        ncols=layout.ncols,
    )
    cache[layout.seg_name] = (seg, view)
    return view
