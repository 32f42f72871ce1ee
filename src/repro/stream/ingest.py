"""Batched edge ingest: a COO append buffer with a deferred CSR rebuild.

``Matrix.set_element`` pays an O(nnz) ``np.insert`` per edge — fine for
point updates, hopeless for streams.  :class:`EdgeBuffer` instead appends
edge writes (sets and removes) into flat COO chunks and, on
:meth:`~EdgeBuffer.flush`, submits **one** merge-rebuild for the whole
batch: an O((nnz + b)·log) last-writer-wins sorted merge.

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
from ..containers.formats import check_indices
from ..containers.matrix import Matrix
from ..descriptor import Flags
from ..info import InvalidValue
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

    def __init__(self, matrix: Matrix, delta: EdgeDelta | None = None):
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
    """COO append buffer over one matrix, flushed as a deferred rebuild.

    Within a buffer *and* against the existing content, the last write to
    an edge wins: ``set`` then ``remove`` deletes, ``remove`` then ``set``
    stores, two sets keep the newer value.  Removing an absent edge is a
    no-op (matching ``GrB_Matrix_removeElement`` service semantics).
    """

    def __init__(self, matrix: Matrix):
        if not isinstance(matrix, Matrix):
            raise InvalidValue("EdgeBuffer requires a Matrix")
        matrix._check_valid()
        if matrix.type.is_udt:
            raise InvalidValue("streaming ingest supports built-in types only")
        self._matrix = matrix
        self._keys: list[np.ndarray] = []
        self._vals: list[np.ndarray] = []
        self._dels: list[np.ndarray] = []
        self._pending = 0

    # ------------------------------------------------------------- appends
    @property
    def matrix(self) -> Matrix:
        return self._matrix

    @property
    def pending(self) -> int:
        """Edge writes buffered since the last flush."""
        return self._pending

    def set_edges(self, rows, cols, values) -> "EdgeBuffer":
        """Buffer ``A(i, j) = v`` for each (i, j, v); scalar v broadcasts."""
        m = self._matrix
        ri = check_indices(rows, m.nrows, "row")
        ci = check_indices(cols, m.ncols, "column")
        vals = np.asarray(values)
        if vals.ndim == 0:
            vals = np.broadcast_to(vals, (len(ri),))
        if len(ri) != len(ci) or len(vals) != len(ri):
            raise InvalidValue("set_edges arrays differ in length")
        if len(ri) == 0:
            return self
        self._keys.append(ri * np.int64(m.ncols) + ci)
        self._vals.append(vals.astype(m.type.np_dtype, copy=True))
        self._dels.append(np.zeros(len(ri), dtype=bool))
        self._pending += len(ri)
        return self

    def remove_edges(self, rows, cols) -> "EdgeBuffer":
        """Buffer deletion of each (i, j); absent edges are no-ops."""
        m = self._matrix
        ri = check_indices(rows, m.nrows, "row")
        ci = check_indices(cols, m.ncols, "column")
        if len(ri) != len(ci):
            raise InvalidValue("remove_edges arrays differ in length")
        if len(ri) == 0:
            return self
        self._keys.append(ri * np.int64(m.ncols) + ci)
        self._vals.append(np.zeros(len(ri), dtype=m.type.np_dtype))
        self._dels.append(np.ones(len(ri), dtype=bool))
        self._pending += len(ri)
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
        if self._pending == 0:
            return FlushResult(m, EdgeDelta.empty(m.nrows, m.ncols, 0))
        batch_keys = np.concatenate(self._keys)
        batch_vals = np.concatenate(self._vals)
        batch_dels = np.concatenate(self._dels)
        self._keys, self._vals, self._dels = [], [], []
        batch = self._pending
        self._pending = 0
        result = FlushResult(m)
        nrows, ncols = m.nrows, m.ncols

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

    Returns the merged (keys, values) plus the exact :class:`EdgeDelta`
    of materially changed edges.
    """
    # dedup the batch: stable sort keeps append order within a key, the
    # last occurrence is the surviving write
    order = np.argsort(batch_keys, kind="stable")
    bk = batch_keys[order]
    bv = batch_vals[order]
    bd = batch_dels[order]
    if len(bk):
        last = np.empty(len(bk), dtype=bool)
        np.not_equal(bk[1:], bk[:-1], out=last[:-1])
        last[-1] = True
        bk, bv, bd = bk[last], bv[last], bd[last]

    # merge with the existing content; batch entries follow old entries,
    # so the stable sort's last occurrence per key is the batch's write
    all_keys = np.concatenate([old_keys, bk])
    all_vals = np.concatenate([old_values, bv])
    all_dels = np.concatenate([np.zeros(len(old_keys), dtype=bool), bd])
    order = np.argsort(all_keys, kind="stable")
    k = all_keys[order]
    v = all_vals[order]
    dl = all_dels[order]
    if len(k):
        last = np.empty(len(k), dtype=bool)
        np.not_equal(k[1:], k[:-1], out=last[:-1])
        last[-1] = True
        k, v, dl = k[last], v[last], dl[last]
    keep = ~dl
    new_keys, new_vals = k[keep], v[keep]

    # the delta: each surviving batch write against the old content
    old_pos = np.searchsorted(old_keys, bk)
    in_bounds = old_pos < len(old_keys)
    old_has = np.zeros(len(bk), dtype=bool)
    if len(old_keys):
        hit = in_bounds.copy()
        hit[in_bounds] = old_keys[old_pos[in_bounds]] == bk[in_bounds]
        old_has = hit
    old_v = np.zeros(len(bk), dtype=old_values.dtype)
    if old_has.any():
        old_v[old_has] = old_values[old_pos[old_has]]
    new_has = ~bd
    # no-ops: deleting an absent edge, or rewriting an unchanged value
    noop = (~old_has & ~new_has) | (old_has & new_has & (old_v == bv))
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
    return new_keys, new_vals, delta
