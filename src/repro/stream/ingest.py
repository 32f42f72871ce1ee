"""Batched edge ingest: a COO append buffer with a deferred rebuild.

``set_element`` pays an O(nnz) ``np.insert`` per element — fine for one
point update, hopeless for streams.  :class:`EdgeBuffer` instead appends
element writes (sets and removes) to any matrix or vector into flat key
chunks and, on :meth:`~EdgeBuffer.flush`, submits **one** merge-rebuild
for the whole batch: a last-writer-wins positional merge against the
sorted content, O(b·log b + nnz) for b buffered writes.

The rebuild is not a side door around the execution model — it is
submitted through :func:`repro.operations.common.submit_standard_op` like
every other GraphBLAS operation, so it lands in the planner DAG as a
first-class deferred node:

* it *reads and writes* the target matrix (the kernel merges into the
  prior content), so RAW/WAW hazard edges order it against any queued op
  touching the matrix — reads submitted before the flush see the
  pre-flush content, reads after see the post-flush content;
* it carries no ``op_token``, so CSE never conflates two rebuilds, and it
  does not overwrite its output, so fusion never lifts it into a chain;
* the shard gate (`repro.shard.opspec.plan_spec`) does not recognize the
  kind, so it always executes in the parent.

The kernel also computes the :class:`~repro.stream.delta.EdgeDelta` of
the batch — *at execution time*, after every hazard predecessor ran, so
the delta is exact against the true pre-flush content.  The caller gets
it through the returned :class:`FlushResult`; reading it is a sequence
point (it forces completion of the target matrix).
"""

from __future__ import annotations

import numpy as np

from .. import context
from .._sparseutil import positions
from ..containers.base import SparseCollection
from ..descriptor import Flags
from ..info import DimensionMismatch, InvalidValue
from ..obs import metrics, spans
from ..operations.common import submit_standard_op
from .delta import EdgeDelta

__all__ = ["EdgeBuffer", "FlushResult"]


class FlushResult:
    """Handle on one submitted flush; resolves to its :class:`EdgeDelta`.

    ``ready`` is True once the deferred rebuild has executed.  ``delta``
    forces completion (a sequence point, like ``nvals``) and returns the
    exact diff the rebuild applied.
    """

    __slots__ = ("_matrix", "_delta")

    def __init__(self, matrix: SparseCollection, delta: EdgeDelta | None = None):
        self._matrix = matrix
        self._delta = delta

    @property
    def ready(self) -> bool:
        return self._delta is not None

    @property
    def delta(self) -> EdgeDelta:
        if self._delta is None:
            context.complete(self._matrix)
        assert self._delta is not None, "rebuild did not run"
        return self._delta


class EdgeBuffer:
    """COO append buffer over one matrix or vector, flushed as a deferred
    rebuild.

    Within a buffer *and* against the existing content, the last write to
    an element wins: ``set`` then ``remove`` deletes, ``remove`` then
    ``set`` stores, two sets keep the newer value.  Removing an absent
    element is a no-op (matching ``GrB_Matrix_removeElement`` service
    semantics).  Index and value checks run at the append, so a batch that
    reaches :meth:`flush` applies whole.
    """

    def __init__(self, matrix: SparseCollection):
        if not isinstance(matrix, SparseCollection):
            raise InvalidValue("EdgeBuffer requires a Matrix or a Vector")
        matrix._check_valid()
        self._matrix = matrix
        self._keys: list[np.ndarray] = []
        self._vals: list[np.ndarray] = []
        self._dels: list[np.ndarray] = []
        self._pending = 0

    # ------------------------------------------------------------- appends
    @property
    def pending(self) -> int:
        """Edge writes buffered since the last flush."""
        return self._pending

    def set_edges(self, *index_and_values) -> "EdgeBuffer":
        """Buffer ``A(i, j) = v`` for each (i, j, v) — ``set_edges(rows,
        cols, values)`` on a matrix, ``set_edges(indices, values)`` on a
        vector; a scalar value broadcasts."""
        *index, values = index_and_values
        return self._append(index, values, False)

    def remove_edges(self, *index) -> "EdgeBuffer":
        """Buffer deletion of each (i, j) — or each i of a vector; absent
        elements are no-ops."""
        return self._append(index, None, True)

    def _append(self, index, values, delete: bool) -> "EdgeBuffer":
        m = self._matrix
        if len(index) != len(m.shape):
            raise InvalidValue(f"{type(m).__name__} edges take "
                               f"{len(m.shape)} index arrays")
        try:
            keys = m._keys_of(*index)
            vals = (np.zeros(len(keys), dtype=m._type.np_dtype) if delete
                    else m._coerce_values(values, len(keys)))
        except DimensionMismatch as exc:
            raise InvalidValue(f"edge arrays differ in length: {exc}") from None
        if len(keys):
            self._keys.append(keys)
            self._vals.append(vals)
            self._dels.append(np.full(len(keys), delete))
            self._pending += len(keys)
        return self

    # --------------------------------------------------------------- flush
    def flush(self) -> FlushResult:
        """Submit the buffered batch as one deferred merge-rebuild.

        Returns immediately in nonblocking mode; the rebuild runs when
        the planner drains it (or when something reads the matrix).  The
        buffer is empty afterwards and may keep accumulating the next
        batch while this one is still deferred.
        """
        m = self._matrix
        m._check_valid()
        nrows, ncols = (*m.shape, 1)[:2]  # a vector reads as one column
        if self._pending == 0:
            # an empty batch changes nothing: its delta is ready at once
            z = np.empty(0, dtype=np.int64)
            return FlushResult(m, _merge_batch(z, z, z, z, z == 0, nrows, ncols)[2])
        batch_keys = np.concatenate(self._keys)
        batch_vals = np.concatenate(self._vals)
        batch_dels = np.concatenate(self._dels)
        self._keys, self._vals, self._dels = [], [], []
        batch = self._pending
        self._pending = 0
        result = FlushResult(m)

        def kernel(_mask_view):
            with spans.span("stream.rebuild", "kernel"):
                old_keys, old_values = m._content()
                keys, vals, delta = _merge_batch(
                    old_keys, old_values,
                    batch_keys, batch_vals, batch_dels,
                    nrows, ncols,
                )
                result._delta = delta
                reg = metrics.registry
                reg.inc("stream.rebuild.count")
                reg.observe("stream.ingest.batch_size", batch)
                # amortization: merged nnz processed per buffered edge —
                # the win over per-edge set_element, which pays this per write
                reg.observe(
                    "stream.rebuild.amortization", len(keys) / max(batch, 1)
                )
                spans.annotate(
                    batch=batch, nnz_out=len(keys), changed=delta.size
                )
            return keys, vals

        submit_standard_op(
            m, None, None, Flags(),
            label="stream.rebuild",
            t_type=m.type,
            kernel=kernel,
            inputs=(m,),
        )
        return result


def _merge_batch(
    old_keys: np.ndarray,
    old_values: np.ndarray,
    batch_keys: np.ndarray,
    batch_vals: np.ndarray,
    batch_dels: np.ndarray,
    nrows: int,
    ncols: int,
) -> tuple[np.ndarray, np.ndarray, EdgeDelta]:
    """Last-writer-wins merge of a COO batch into sorted flat-key content.

    The batch is deduplicated (the last write per key survives), each
    surviving key is looked up once in the sorted old keys, and that one
    lookup places every write: an overwrite, a deletion or an insertion.
    The cost is O(b·log b) for the batch plus O(nnz) for the copies.
    Returns the merged (keys, values) plus the exact :class:`EdgeDelta`
    of materially changed elements.
    """
    # a stable sort keeps append order within a key: the last occurrence
    # is the surviving write
    order = np.argsort(batch_keys, kind="stable")
    bk = batch_keys[order]
    last = np.ones(len(bk), dtype=bool)
    np.not_equal(bk[1:], bk[:-1], out=last[:-1])
    order = order[last]
    bk, bv, bd = bk[last], batch_vals[order], batch_dels[order]

    pos = positions(bk, old_keys)
    old_has = pos >= 0
    new_has = ~bd
    old_v = np.zeros(len(bk), dtype=old_values.dtype)
    old_v[old_has] = old_values[pos[old_has]]

    add = ~old_has & new_has
    at = np.searchsorted(old_keys, bk[add])
    keys = np.insert(old_keys, at, bk[add])  # np.insert always copies
    vals = np.insert(old_values, at, bv[add])
    # an old position moves right by the insertions placed before it
    moved = pos + np.searchsorted(at, pos, side="right")
    put = old_has & new_has
    vals[moved[put]] = bv[put]
    drop = moved[old_has & bd]
    if len(drop):
        keys = np.delete(keys, drop)
        vals = np.delete(vals, drop)

    # no-ops: deleting an absent element, or rewriting an unchanged value
    noop = (~old_has & ~new_has) | (put & (old_v == bv))
    sel = ~noop
    delta = EdgeDelta(
        nrows=nrows,
        ncols=ncols,
        rows=bk[sel] // np.int64(ncols),
        cols=bk[sel] % np.int64(ncols),
        old_mask=old_has[sel],
        old_values=old_v[sel],
        new_mask=new_has[sel],
        new_values=bv[sel],
        base_nnz=len(old_keys),
    )
    return keys, vals, delta
