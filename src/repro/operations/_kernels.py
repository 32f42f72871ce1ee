"""Semiring kernels: the computations that produce the internal result T.

All kernels follow the paper's set-intersection formulation

    C(i,j) = ⊕_{k ∈ ind(A(i,:)) ∩ ind(B(:,j))} A(i,k) ⊗ B(k,j)

— the ⊗ operator touches only stored elements, so the semiring's implied
zero never materializes.

SpGEMM is *expand → block-local 16-bit sort → reduce*: explode every
contributing (i,k)×(k,j) pair into a flat product array, order it by output
key, and fold each run with the additive monoid (``reduceat``).  The
expansion is already row-major, so the order is computed one block of at
most 2**16 output cells at a time: within a block the local keys fit in
``uint16``, which numpy's stable sort handles by radix, and the block
orders concatenate into exactly the permutation a stable sort of the whole
int64 key array gives.  That global sort stays only for ``ncols > 2**16``
and for outputs too hypersparse to fill a block.

SpMV (``mxv``, and ``vxm`` on the CSR of Aᵀ) has three directions, all
folding each output's products in ascending index order: ``rows``
intersects every row of A with v, ``mask_rows`` only the rows a selective
mask can write, and ``columns`` walks only the lines of the cached
transpose view that v names, chosen when Σ deg(v) is the smaller work.

Apply, select and row-reduce each have one body — :func:`map_values`,
:func:`filter_values`, :func:`reduce_rows` — which the op's own kernel and
the interpreter's fused chain links both call, so T is the same function
of its input fused or not.

Every measured kernel runs through :func:`_observed_kernel`, the only code
that asks whether anything observes: disarmed, it calls the kernel and
nothing else, not even its cost estimate.

Everything is vectorized numpy; arbitrary (even user-defined,
object-domain) operators run through the same structure via the
operators' loop fallbacks, so there is one code path to trust.  Large
multiplications are split into contiguous row blocks and dispatched to the
thread pool (:mod:`repro.parallel`) or the shard workers; blocks produce
disjoint, ordered key ranges, so concatenation preserves global order.
"""

from __future__ import annotations

import time as _time

import numpy as np

from .._sparseutil import (
    group_starts,
    ranges_concat,
    segment_reduce,
    stable_order,
)
from ..algebra.semiring import Semiring
from ..containers.formats import CSRView
from ..containers.mask import MaskView
from ..obs import metrics as _metrics
from ..obs import spans as _obs_spans
from ..obs.tracing import tally_flops as _tally_flops
from ..parallel import (
    get_num_threads,
    parallel_threshold,
    row_blocks,
    thread_pool,
)
from ..types import cast_array

__all__ = [
    "spgemm",
    "spmv",
    "spmv_walks",
    "reduce_rows",
    "map_values",
    "filter_values",
    "index_values",
    "estimate_flops",
    "spgemm_row_work",
]


#: output cells one SpGEMM sort block covers: block-local keys fit in uint16
_BLOCK_CELLS = 1 << 16
#: fewest products per spanned block for which sorting block by block beats
#: one global int64 sort (measured break-even: ~128 on a 2-core x86 host)
_BLOCK_MIN_MEAN = 128


def _empty(dtype) -> tuple[np.ndarray, np.ndarray]:
    return np.empty(0, dtype=np.int64), np.empty(0, dtype=dtype)


def estimate_flops(a_view: CSRView, b_view: CSRView) -> int:
    """Exact multiply count of the expansion: Σ_{(i,k)∈A} nnz(B(k,:))."""
    if a_view.nnz == 0 or b_view.nnz == 0:
        return 0
    return int(np.diff(b_view.indptr)[a_view.indices].sum())


def spgemm_row_work(a_view: CSRView, b_view: CSRView) -> np.ndarray:
    """Per-row share of :func:`estimate_flops` — what :func:`repro.parallel.
    row_blocks` balances, for the thread pool and the shard pool alike."""
    work = np.zeros(a_view.nrows, dtype=np.int64)
    np.add.at(work, a_view.row_ids(), np.diff(b_view.indptr)[a_view.indices])
    return work


def _spgemm_block(
    a_view: CSRView,
    a_vals: np.ndarray,
    b_view: CSRView,
    b_vals: np.ndarray,
    semiring: Semiring,
    rows: slice,
    mask_view: MaskView | None,
    acc: list | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Expand–sort–reduce over a contiguous block of A's rows.

    Keys are absolute, so blocks of ascending row windows concatenate into
    exactly the full call's sorted stream — a row window of a row-major CSR
    is the same elements in the same order, hence the identical per-row
    folds, for every domain.  The thread pool and the shard workers both
    rely on that, here and in :func:`_spmv_rows`.

    *acc*, when given, receives this block's realized multiply count (the
    products that survive mask push-down) — ``list.append`` is atomic under
    the GIL, so concurrent blocks report safely without a lock."""
    out_dtype = semiring.d_out.np_dtype
    lo, hi = rows.start, rows.stop
    a_lo, a_hi = int(a_view.indptr[lo]), int(a_view.indptr[hi])
    if a_lo == a_hi:
        return _empty(out_dtype)

    a_cols = a_view.indices[a_lo:a_hi]
    a_rows = a_view.row_ids(lo, hi)
    counts = np.diff(b_view.indptr)[a_cols]
    total = int(counts.sum())
    if total == 0:
        return _empty(out_dtype)

    gather = ranges_concat(b_view.indptr[a_cols], counts)
    out_rows = np.repeat(a_rows, counts)
    out_cols = b_view.indices[gather]
    left = np.repeat(a_vals[a_lo:a_hi], counts)
    right = b_vals[gather]

    keys = out_rows * np.int64(b_view.ncols) + out_cols
    if mask_view is not None:
        # mask push-down: products whose destination the mask forbids can
        # never be written — drop them before the sort
        keys, left, right, out_rows = mask_view.restrict(
            keys, left, right, out_rows
        )
        if len(keys) == 0:
            return _empty(out_dtype)

    if acc is not None:
        acc.append(len(keys))
    prods = semiring.mul.apply_arrays(left, right)
    order = _row_major_order(keys, out_rows, b_view.ncols)
    keys = keys[order]
    prods = prods[order]
    uniq, starts = group_starts(keys)
    vals = segment_reduce(prods, starts, semiring.add)
    if not semiring.d_out.is_udt and vals.dtype != out_dtype:
        vals = vals.astype(out_dtype)
    return uniq, vals


def _row_major_order(
    keys: np.ndarray, rows: np.ndarray, ncols: int
) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for non-empty flat keys whose
    *rows* never decrease — the order the expansion emits.

    Blocks of ``_BLOCK_CELLS // ncols`` rows (aligned on multiples of that
    count, so a window with ``lo > 0`` starts with a partial block) hold
    consecutive runs of the key stream; each block's keys lie in one range
    of ``_BLOCK_CELLS`` cells, so each is sorted on its ``uint16`` local
    keys and the block orders concatenate into the global one.  A block
    costs ~2 µs of Python, so when the blocks the rows span would average
    fewer than ``_BLOCK_MIN_MEAN`` products (a hypersparse output) the one
    global sort is the cheaper way to the same permutation."""
    if ncols > _BLOCK_CELLS:
        return np.argsort(keys, kind="stable")
    per = _BLOCK_CELLS // ncols
    first, last = int(rows[0]) // per, int(rows[-1]) // per
    if len(keys) < _BLOCK_MIN_MEAN * (last - first + 1):
        return np.argsort(keys, kind="stable")
    local = keys % np.int64(per * ncols)
    cuts = np.searchsorted(
        rows, np.arange(first + 1, last + 1, dtype=np.int64) * per
    ).tolist()
    order = np.empty(len(keys), dtype=np.int64)
    for s, e in zip([0, *cuts], [*cuts, len(keys)]):
        if e > s:
            np.add(stable_order(local[s:e], _BLOCK_CELLS), s, out=order[s:e])
    return order


def _spgemm_impl(
    a_view: CSRView,
    a_vals: np.ndarray,
    b_view: CSRView,
    b_vals: np.ndarray,
    semiring: Semiring,
    mask_view: MaskView | None = None,
    acc: list | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    out_dtype = semiring.d_out.np_dtype
    if a_view.nnz == 0 or b_view.nnz == 0:
        return _empty(out_dtype)

    nthreads = get_num_threads()
    if nthreads > 1 and not semiring.d_out.is_udt:
        flops = estimate_flops(a_view, b_view)
        if flops >= parallel_threshold():
            blocks = row_blocks(spgemm_row_work(a_view, b_view), nthreads)
            if len(blocks) > 1:
                futures = [
                    thread_pool().submit(
                        _spgemm_block,
                        a_view,
                        a_vals,
                        b_view,
                        b_vals,
                        semiring,
                        blk,
                        mask_view,
                        acc,
                    )
                    for blk in blocks
                ]
                parts = [f.result() for f in futures]
                keys = np.concatenate([p[0] for p in parts])
                vals = np.concatenate([p[1] for p in parts])
                return keys, vals

    return _spgemm_block(
        a_view, a_vals, b_view, b_vals, semiring,
        slice(0, a_view.nrows), mask_view, acc,
    )


def spgemm(
    a_view: CSRView,
    a_vals: np.ndarray,
    b_view: CSRView,
    b_vals: np.ndarray,
    semiring: Semiring,
    mask_view: MaskView | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``T = A ⊕.⊗ B`` as sorted flat keys over an (A.nrows × B.ncols) space.

    *a_vals*/*b_vals* are the views' value arrays already cast to the
    multiply operator's input domains.

    Observed (:func:`_observed_kernel`), the invocation is a kernel span
    carrying estimated flops (the full expansion bound), realized flops
    (products surviving mask push-down), output nnz, and the block count.
    """
    return _observed_kernel(
        "spgemm",
        lambda acc: _spgemm_impl(
            a_view, a_vals, b_view, b_vals, semiring, mask_view, acc
        ),
        lambda: (estimate_flops(a_view, b_view), a_view.nnz + b_view.nnz),
    )


def _observed_kernel(
    label: str,
    run,
    cost,
    *,
    backend: str = "interpreter",
    compiled: bool = False,
):
    """Run a kernel, measured when anything observes it: the one place a
    kernel asks whether a span sink is armed or metrics are on.

    *run* takes the realized-flops accumulator and returns ``(keys, vals)``.
    Disarmed, this is ``run(None)``: *cost* is not called and nothing is
    measured.  Observed, *cost* returns ``(flops_estimated, nnz_in)``, *run*
    gets a list, and the shell opens the kernel span, counts into the
    process registry, and guarantees the span closes on error paths.
    *backend*/*compiled* are kernel provenance: which kernel suite produced
    T, and whether a generated (compiled) kernel ran rather than the
    hand-written one.
    """
    sink = _obs_spans.current()
    if sink is None and not _metrics.registry.enabled:
        return run(None)
    flops_estimated, nnz_in = cost()
    attrs = {
        "flops_estimated": flops_estimated, "nnz_in": nnz_in,
        "backend": backend, "compiled": compiled,
    }
    fast = getattr(sink, "fast_append", None) if sink is not None else None
    acc: list = []
    sp = None
    t0 = 0.0
    if fast is not None:
        # ring-only retention: skip full span construction on the kernel
        # hot path; the record is appended once the kernel finishes
        t0 = _time.perf_counter()
    elif sink is not None:
        sp = sink.open(label, "kernel", **attrs)
    try:
        keys, vals = run(acc)
        realized = int(sum(acc))
        done = {
            "flops_realized": realized,
            "nnz_out": len(keys),
            "blocks": max(len(acc), 1),
        }
        if sp is not None:
            sp.attrs.update(done)
        elif fast is not None:
            fast(label, "kernel", t0, _time.perf_counter(),
                 {**attrs, **done}, False)
            fast = None  # consumed: the error path below must not re-log
        reg = _metrics.registry
        reg.inc("kernel.invocations")
        reg.inc("kernel.flops_estimated", flops_estimated)
        reg.inc("kernel.flops_realized", realized)
        reg.inc("kernel.nnz_out", len(keys))
        _tally_flops(realized)  # drain accounting, when a batch is collecting
        return keys, vals
    finally:
        if sp is not None:
            sink.close(sp)
        elif fast is not None:
            # run() raised: still retain the failed kernel's timing
            fast(label, "kernel", t0, _time.perf_counter(),
                 {**attrs, "failed": True}, False)


def spmv(
    a_view: CSRView,
    a_vals: np.ndarray,
    v_keys: np.ndarray,
    v_vals: np.ndarray,
    semiring: Semiring,
    swap: bool = False,
    mask_view: MaskView | None = None,
    walk: tuple | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``t = A ⊕.⊗ v`` over stored-index intersections per row.

    With ``swap`` the multiply runs as ``v_i ⊗ A(i,j)`` instead of
    ``A(i,j) ⊗ v_i`` — the ``vxm`` orientation, where the kernel is handed
    the CSR of Aᵀ and the vector is the left operand.

    Three directions compute the same T, bit for bit:

    * ``rows`` — intersect every stored row of A with v: ``nnz(A)`` work;
    * ``mask_rows`` — under a selective, non-complemented mask, intersect
      only the rows the mask can write: Σ nnz(A(i,:)) over those rows;
    * ``columns`` — walk only the lines of Aᵀ that v names: Σ deg(v) work.
      *walk* is ``(CSR of Aᵀ, cast of its raw values into a_vals' domain)``
      and is passed only when that view is already cached, since building
      it costs O(nnz(A)), which one call never earns back.

    T comes back within the mask: the walk and ``mask_rows`` push it down,
    and ``rows`` cuts its T once.  :func:`spmv_walks` picks the walk when its exact work is below the row
    path's; the shard gate reads the same choice.

    Observability mirrors :func:`spgemm`: a kernel span with estimated
    (``nnz(A)``, the intersection upper bound) vs realized multiply counts
    and the chosen direction.
    """
    return _observed_kernel(
        "spmv",
        lambda acc: _spmv_impl(
            a_view, a_vals, v_keys, v_vals, semiring, swap, mask_view, walk,
            acc,
        ),
        lambda: (a_view.nnz, a_view.nnz + len(v_keys)),
    )


def _mask_rows(a_view: CSRView, mask_view: MaskView | None):
    """The rows a selective, non-complemented mask can write, or None when
    the row path intersects every row."""
    if (
        mask_view is not None
        and not mask_view.complemented
        and len(mask_view.pattern) <= a_view.nrows // 2
    ):
        return mask_view.pattern
    return None


def _line_counts(view: CSRView, lines: np.ndarray) -> np.ndarray:
    return view.indptr[lines + 1] - view.indptr[lines]


def spmv_walks(
    a_view: CSRView,
    walk_view: CSRView | None,
    v_keys: np.ndarray,
    mask_view: MaskView | None,
) -> bool:
    """Whether :func:`spmv` takes the column walk: *walk_view* (the CSR of
    ``a_view``'s transpose) is cached and Σ deg(v) in it is below the row
    path's work — ``nnz(A)``, or Σ nnz(A(i,:)) over the mask's rows."""
    if walk_view is None or len(v_keys) == 0:
        return False
    sel = _mask_rows(a_view, mask_view)
    if sel is None:
        rows_work = a_view.nnz
    else:
        rows_work = int(_line_counts(a_view, sel).sum())
    return int(_line_counts(walk_view, v_keys).sum()) < rows_work


def _spmv_impl(
    a_view: CSRView,
    a_vals: np.ndarray,
    v_keys: np.ndarray,
    v_vals: np.ndarray,
    semiring: Semiring,
    swap: bool = False,
    mask_view: MaskView | None = None,
    walk: tuple | None = None,
    acc: list | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    if a_view.nnz == 0 or len(v_keys) == 0:
        return _empty(semiring.d_out.np_dtype)
    walk_view = walk[0] if walk is not None else None
    if spmv_walks(a_view, walk_view, v_keys, mask_view):
        return _spmv_columns(
            walk_view, walk[1], v_keys, v_vals, semiring, swap, mask_view, acc
        )
    sel = _mask_rows(a_view, mask_view)
    t = _spmv_rows(
        a_view, a_vals, v_keys, v_vals, semiring, swap,
        slice(0, a_view.nrows) if sel is None else sel, acc,
    )
    if sel is None and mask_view is not None:
        # no row selection took the mask: cut T once
        t = mask_view.restrict(*t)
    return t


def _spmv_rows(
    a_view: CSRView,
    a_vals: np.ndarray,
    v_keys: np.ndarray,
    v_vals: np.ndarray,
    semiring: Semiring,
    swap: bool,
    rows: slice | np.ndarray,
    acc: list | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Row intersection: intersect each selected row's stored columns with
    v.  *rows* is a ``slice`` — the full call or a shard worker's window —
    or the sorted row ids of a selective mask.  Keys are absolute row ids."""
    if isinstance(rows, slice):
        lo, hi = rows.start, rows.stop
        sel = slice(int(a_view.indptr[lo]), int(a_view.indptr[hi]))
        row_ids = a_view.row_ids(lo, hi)  # nondecreasing: row-major
        direction = "rows"
    else:
        counts = _line_counts(a_view, rows)
        sel = ranges_concat(a_view.indptr[rows], counts)
        row_ids = np.repeat(rows.astype(np.int64), counts)
        direction = "mask_rows"
    cols = a_view.indices[sel]
    if len(cols) == 0 or len(v_keys) == 0:
        return _empty(semiring.d_out.np_dtype)
    pos = np.searchsorted(v_keys, cols)
    pos_c = np.minimum(pos, len(v_keys) - 1)
    hit = v_keys[pos_c] == cols
    if not hit.any():
        return _empty(semiring.d_out.np_dtype)
    return _spmv_fold(
        row_ids[hit], a_vals[sel][hit], v_vals[pos_c[hit]],
        semiring, swap, direction, acc,
    )


def _spmv_columns(
    walk_view: CSRView,
    cast,
    v_keys: np.ndarray,
    v_vals: np.ndarray,
    semiring: Semiring,
    swap: bool,
    mask_view: MaskView | None,
    acc: list | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Column walk: gather the lines of Aᵀ that v names, in ascending v
    order, and stable-sort the products by output row.  Each row then
    folds its products in ascending column order — the order the row
    intersection visits them — so T is bit-identical to it."""
    counts = _line_counts(walk_view, v_keys)
    gather = ranges_concat(walk_view.indptr[v_keys], counts)
    out_ids = walk_view.indices[gather]
    right = np.repeat(v_vals, counts)
    if mask_view is not None:
        # mask push-down, as in SpGEMM: drop products the mask forbids
        out_ids, right, gather = mask_view.restrict(out_ids, right, gather)
    if len(out_ids) == 0:
        return _empty(semiring.d_out.np_dtype)
    order = stable_order(out_ids, walk_view.ncols)
    return _spmv_fold(
        out_ids[order], cast(walk_view.values[gather[order]]), right[order],
        semiring, swap, "columns", acc,
    )


def _spmv_fold(
    out_ids: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    semiring: Semiring,
    swap: bool,
    direction: str,
    acc: list | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Multiply the paired A and v values and fold each output's run;
    *out_ids* is nondecreasing."""
    if acc is not None:
        acc.append(len(left))
        _obs_spans.annotate(direction=direction)
    prods = (
        semiring.mul.apply_arrays(right, left)
        if swap
        else semiring.mul.apply_arrays(left, right)
    )
    uniq, starts = group_starts(out_ids)
    vals = segment_reduce(prods, starts, semiring.add)
    out_dtype = semiring.d_out.np_dtype
    if not semiring.d_out.is_udt and vals.dtype != out_dtype:
        vals = vals.astype(out_dtype)
    return uniq, vals


def reduce_rows(
    row_ids: np.ndarray, vals: np.ndarray, monoid, acc: list | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``t(i) = ⊕`` over the stored elements of row i; empty rows stay
    undefined (Table II's ``reduce (row)``).

    *row_ids* is nondecreasing: a view's :meth:`~CSRView.row_ids`, or a
    fused producer's ``keys // ncols`` — the same elements in the same
    order — so the fold is the same fused or not.  *acc*, when given,
    receives one ⊕ per stored element."""
    if acc is not None:
        acc.append(len(row_ids))
    dtype = monoid.domain.np_dtype
    if len(row_ids) == 0:
        return _empty(dtype)
    uniq, starts = group_starts(row_ids)
    out = segment_reduce(vals, starts, monoid)
    if not monoid.domain.is_udt and out.dtype != dtype:
        out = out.astype(dtype)
    return uniq, out


def map_values(
    keys: np.ndarray,
    vals: np.ndarray,
    mask_view: MaskView | None,
    post,
    acc: list | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The ``apply`` kernel: *post* (the op's cast → operator → output-dtype
    fix) over the stored elements inside the mask.  *acc*, when given,
    receives one application per survivor."""
    if mask_view is not None:
        keys, vals = mask_view.restrict(keys, vals)
    if acc is not None:
        acc.append(len(keys))
    return keys, post(vals)


def index_values(
    keys: np.ndarray, vals: np.ndarray, op, thunk, in_type, coords
) -> np.ndarray:
    """``op(a_ij, i, j, thunk)`` over stored elements: *coords* is the
    output's coordinate map (a vector's ``j`` is 0), and *vals* are in
    *in_type*."""
    rows, *cols = coords(keys)
    cols = cols[0] if cols else np.zeros(len(keys), dtype=np.int64)
    if op.d_in is not None:
        vals = cast_array(vals, in_type, op.d_in)
    return op.apply_arrays(vals, rows, cols, thunk)


def filter_values(
    keys: np.ndarray,
    vals: np.ndarray,
    mask_view: MaskView | None,
    selector,
    in_type,
    coords,
    acc: list | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The ``select`` kernel: the stored elements inside the mask for which
    :func:`index_values` holds; *selector* is ``(op, thunk)``.  *acc*, when
    given, receives one count per survivor."""
    if mask_view is not None:
        keys, vals = mask_view.restrict(keys, vals)
    if len(keys) == 0:
        out = keys, vals.copy()
    else:
        verdict = np.asarray(
            index_values(keys, vals, *selector, in_type, coords)
        ).astype(bool)
        out = keys[verdict], vals[verdict]
    if acc is not None:
        acc.append(len(out[0]))
    return out
