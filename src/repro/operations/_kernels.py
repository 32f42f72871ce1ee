"""Semiring kernels: the computations that produce the internal result T.

All kernels follow the paper's set-intersection formulation

    C(i,j) = ⊕_{k ∈ ind(A(i,:)) ∩ ind(B(:,j))} A(i,k) ⊗ B(k,j)

— the ⊗ operator touches only stored elements, so the semiring's implied
zero never materializes.

The workhorse is *expand–sort–reduce* SpGEMM: explode every contributing
(i,k)×(k,j) pair into a flat product array, sort by output key, and fold
runs with the additive monoid.  Everything is vectorized numpy; arbitrary
(even user-defined, object-domain) operators run through the same structure
via the operators' loop fallbacks, so there is one code path to trust.

Large multiplications are split into contiguous row blocks and dispatched
to the thread pool (:mod:`repro.parallel`); blocks produce disjoint,
ordered key ranges, so concatenation preserves global sort order.
"""

from __future__ import annotations

import time as _time

import numpy as np

from .._sparseutil import group_starts, ranges_concat, segment_reduce
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

__all__ = [
    "spgemm",
    "spmv",
    "reduce_rows",
    "reduce_rows_flat",
    "fused_apply",
    "fused_select",
    "estimate_flops",
    "spgemm_row_work",
]


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
    rely on that, here and in :func:`_spmv_push` / :func:`_reduce_rows_impl`.

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
        # never be written — drop them before the expensive sort
        keep = mask_view.allows(keys)
        if not keep.all():
            keys, left, right = keys[keep], left[keep], right[keep]
        if len(keys) == 0:
            return _empty(out_dtype)

    if acc is not None:
        acc.append(len(keys))
    prods = semiring.mul.apply_arrays(left, right)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    prods = prods[order]
    uniq, starts = group_starts(keys)
    vals = segment_reduce(prods, starts, semiring.add)
    if not semiring.d_out.is_udt and vals.dtype != out_dtype:
        vals = vals.astype(out_dtype)
    return uniq, vals


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

    When observability is live (span capture armed or metrics enabled) the
    invocation emits a kernel span carrying estimated flops (the full
    expansion bound), realized flops (products surviving mask push-down),
    output nnz, and the block count; disarmed, the implementation runs with
    zero measurement work.
    """
    if _obs_spans.current() is None and not _metrics.registry.enabled:
        return _spgemm_impl(a_view, a_vals, b_view, b_vals, semiring, mask_view)
    return _observed_kernel(
        "spgemm",
        lambda acc: _spgemm_impl(
            a_view, a_vals, b_view, b_vals, semiring, mask_view, acc
        ),
        flops_estimated=estimate_flops(a_view, b_view),
        nnz_in=a_view.nnz + b_view.nnz,
    )


def _observed_kernel(
    label: str,
    run,
    *,
    flops_estimated: int,
    nnz_in: int,
    backend: str = "interpreter",
    compiled: bool = False,
):
    """Shared measurement shell for semiring kernels.

    *run* takes the realized-flops accumulator list and returns
    ``(keys, vals)``; the shell opens the kernel span, counts into the
    process registry, and guarantees the span closes on error paths.
    *backend*/*compiled* are kernel provenance: which kernel suite produced
    T, and whether a generated (compiled) kernel ran rather than the
    hand-written one.
    """
    sink = _obs_spans.current()
    fast = getattr(sink, "fast_append", None) if sink is not None else None
    acc: list = []
    sp = None
    t0 = 0.0
    if fast is not None:
        # ring-only retention: skip full span construction on the kernel
        # hot path; the attrs dict is only built when the kernel finishes
        t0 = _time.perf_counter()
    elif sink is not None:
        sp = sink.open(
            label, "kernel",
            flops_estimated=flops_estimated, nnz_in=nnz_in,
            backend=backend, compiled=compiled,
        )
    try:
        keys, vals = run(acc)
        realized = int(sum(acc))
        if sp is not None:
            sp.attrs.update(
                flops_realized=realized,
                nnz_out=len(keys),
                blocks=max(len(acc), 1),
            )
        elif fast is not None:
            fast(label, "kernel", t0, _time.perf_counter(), {
                "flops_estimated": flops_estimated,
                "nnz_in": nnz_in,
                "backend": backend,
                "compiled": compiled,
                "flops_realized": realized,
                "nnz_out": len(keys),
                "blocks": max(len(acc), 1),
            }, False)
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
            fast(label, "kernel", t0, _time.perf_counter(), {
                "flops_estimated": flops_estimated,
                "nnz_in": nnz_in,
                "backend": backend,
                "compiled": compiled,
                "failed": True,
            }, False)


def spmv(
    a_view: CSRView,
    a_vals: np.ndarray,
    v_keys: np.ndarray,
    v_vals: np.ndarray,
    semiring: Semiring,
    swap: bool = False,
    mask_view: MaskView | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``t = A ⊕.⊗ v`` over stored-index intersections per row.

    With ``swap`` the multiply runs as ``v_i ⊗ A(i,j)`` instead of
    ``A(i,j) ⊗ v_i`` — the ``vxm`` orientation, where the kernel is handed
    the CSR of Aᵀ and the vector is the left operand.

    With a selective, non-complemented mask the kernel switches to the
    *pull* direction: only the rows the mask can write are gathered, so
    cost is Σ nnz(A(i,:)) over masked rows rather than nnz(A) — the classic
    push/pull direction optimization of the GPU backends the paper's
    section VIII points to.

    Observability mirrors :func:`spgemm`: a kernel span with estimated
    (``nnz(A)``, the intersection upper bound) vs realized multiply counts
    and the chosen direction (push/pull), only when a consumer is live.
    """
    if _obs_spans.current() is None and not _metrics.registry.enabled:
        return _spmv_impl(
            a_view, a_vals, v_keys, v_vals, semiring, swap, mask_view
        )
    return _observed_kernel(
        "spmv",
        lambda acc: _spmv_impl(
            a_view, a_vals, v_keys, v_vals, semiring, swap, mask_view, acc
        ),
        flops_estimated=a_view.nnz,
        nnz_in=a_view.nnz + len(v_keys),
    )


def _spmv_impl(
    a_view: CSRView,
    a_vals: np.ndarray,
    v_keys: np.ndarray,
    v_vals: np.ndarray,
    semiring: Semiring,
    swap: bool = False,
    mask_view: MaskView | None = None,
    acc: list | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    out_dtype = semiring.d_out.np_dtype
    if a_view.nnz == 0 or len(v_keys) == 0:
        return _empty(out_dtype)

    if (
        mask_view is not None
        and not mask_view.complemented
        and len(mask_view.pattern) <= a_view.nrows // 2
    ):
        return _spmv_pull(
            a_view, a_vals, v_keys, v_vals, semiring, swap,
            mask_view.pattern, acc,
        )

    return _spmv_push(
        a_view, a_vals, v_keys, v_vals, semiring, swap,
        slice(0, a_view.nrows), acc,
    )


def _spmv_push(
    a_view: CSRView,
    a_vals: np.ndarray,
    v_keys: np.ndarray,
    v_vals: np.ndarray,
    semiring: Semiring,
    swap: bool,
    rows: slice,
    acc: list | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Push direction over a contiguous block of A's rows: intersect every
    stored column with v.  Keys are absolute row ids."""
    out_dtype = semiring.d_out.np_dtype
    lo, hi = rows.start, rows.stop
    a_lo, a_hi = int(a_view.indptr[lo]), int(a_view.indptr[hi])
    if a_lo == a_hi or len(v_keys) == 0:
        return _empty(out_dtype)

    cols = a_view.indices[a_lo:a_hi]
    pos = np.searchsorted(v_keys, cols)
    pos_c = np.minimum(pos, len(v_keys) - 1)
    hit = v_keys[pos_c] == cols
    if not hit.any():
        return _empty(out_dtype)

    row_ids = a_view.row_ids(lo, hi)[hit]  # nondecreasing: row-major
    left = a_vals[a_lo:a_hi][hit]
    right = v_vals[pos_c[hit]]
    if acc is not None:
        acc.append(len(left))
        _obs_spans.annotate(direction="push")
    prods = (
        semiring.mul.apply_arrays(right, left)
        if swap
        else semiring.mul.apply_arrays(left, right)
    )
    uniq, starts = group_starts(row_ids)
    vals = segment_reduce(prods, starts, semiring.add)
    if not semiring.d_out.is_udt and vals.dtype != out_dtype:
        vals = vals.astype(out_dtype)
    return uniq, vals


def _spmv_pull(
    a_view: CSRView,
    a_vals: np.ndarray,
    v_keys: np.ndarray,
    v_vals: np.ndarray,
    semiring: Semiring,
    swap: bool,
    rows_sel: np.ndarray,
    acc: list | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Pull direction: gather only the selected rows, then intersect with v."""
    out_dtype = semiring.d_out.np_dtype
    if len(rows_sel) == 0:
        return _empty(out_dtype)
    counts = (a_view.indptr[rows_sel + 1] - a_view.indptr[rows_sel])
    gather = ranges_concat(a_view.indptr[rows_sel], counts)
    if len(gather) == 0:
        return _empty(out_dtype)
    cols = a_view.indices[gather]
    pos = np.searchsorted(v_keys, cols)
    pos_c = np.minimum(pos, len(v_keys) - 1)
    hit = v_keys[pos_c] == cols
    if not hit.any():
        return _empty(out_dtype)
    rows = np.repeat(rows_sel.astype(np.int64), counts)[hit]
    left = a_vals[gather][hit]
    right = v_vals[pos_c[hit]]
    if acc is not None:
        acc.append(len(left))
        _obs_spans.annotate(direction="pull")
    prods = (
        semiring.mul.apply_arrays(right, left)
        if swap
        else semiring.mul.apply_arrays(left, right)
    )
    uniq, starts = group_starts(rows)
    vals = segment_reduce(prods, starts, semiring.add)
    if not semiring.d_out.is_udt and vals.dtype != out_dtype:
        vals = vals.astype(out_dtype)
    return uniq, vals


def reduce_rows(
    a_view: CSRView, a_vals: np.ndarray, monoid
) -> tuple[np.ndarray, np.ndarray]:
    """``t(i) = ⊕_j A(i,j)`` over stored elements; empty rows stay undefined
    (Table II's ``reduce (row)``)."""
    whole = slice(0, a_view.nrows)
    if _obs_spans.current() is not None or _metrics.registry.enabled:

        def run(acc):
            acc.append(a_view.nnz)  # one ⊕ fold per stored element
            return _reduce_rows_impl(a_view, a_vals, monoid, whole)

        return _observed_kernel(
            "reduce_rows", run,
            flops_estimated=a_view.nnz, nnz_in=a_view.nnz,
        )
    return _reduce_rows_impl(a_view, a_vals, monoid, whole)


def _reduce_rows_impl(
    a_view: CSRView, a_vals: np.ndarray, monoid, rows: slice
) -> tuple[np.ndarray, np.ndarray]:
    """Row reduction over a contiguous block of A's rows; keys are
    absolute row ids."""
    dtype = monoid.domain.np_dtype
    lo, hi = rows.start, rows.stop
    a_lo, a_hi = int(a_view.indptr[lo]), int(a_view.indptr[hi])
    if a_lo == a_hi:
        return _empty(dtype)
    uniq, starts = group_starts(a_view.row_ids(lo, hi))
    vals = segment_reduce(a_vals[a_lo:a_hi], starts, monoid)
    if not monoid.domain.is_udt and vals.dtype != dtype:
        vals = vals.astype(dtype)
    return uniq, vals


def reduce_rows_flat(
    keys: np.ndarray, vals: np.ndarray, ncols: int, monoid
) -> tuple[np.ndarray, np.ndarray]:
    """Row reduction straight off sorted flat keys — the fusion form of
    :func:`reduce_rows`, fed a producer's un-materialized result instead of
    a CSR view.  Flat keys sort row-major, so segments are exactly the rows
    in the same element order the view-based kernel folds them."""
    if _obs_spans.current() is not None or _metrics.registry.enabled:

        def run(acc):
            acc.append(len(keys))
            return _reduce_rows_flat_impl(keys, vals, ncols, monoid)

        return _observed_kernel(
            "reduce_rows[fused]", run,
            flops_estimated=len(keys), nnz_in=len(keys),
        )
    return _reduce_rows_flat_impl(keys, vals, ncols, monoid)


def _reduce_rows_flat_impl(
    keys: np.ndarray, vals: np.ndarray, ncols: int, monoid
) -> tuple[np.ndarray, np.ndarray]:
    dtype = monoid.domain.np_dtype
    if len(keys) == 0:
        return _empty(dtype)
    rows = keys // np.int64(ncols)
    uniq, starts = group_starts(rows)
    out = segment_reduce(vals, starts, monoid)
    if not monoid.domain.is_udt and out.dtype != dtype:
        out = out.astype(dtype)
    return uniq, out


def fused_apply(
    keys: np.ndarray,
    vals: np.ndarray,
    mask_view: MaskView | None,
    post,
) -> tuple[np.ndarray, np.ndarray]:
    """Value-map over a producer's un-materialized result: the fusion form
    of the ``apply`` kernel.  *post* is the consumer's captured value path
    (cast → operator → output-dtype fix); the mask filter mirrors the
    unfused kernel's push-down order exactly (keys first, then values)."""
    if _obs_spans.current() is not None or _metrics.registry.enabled:

        def run(acc):
            out = _fused_apply_impl(keys, vals, mask_view, post)
            acc.append(len(out[0]))  # one value-map application per survivor
            return out

        return _observed_kernel(
            "apply[fused]", run,
            flops_estimated=len(keys), nnz_in=len(keys),
        )
    return _fused_apply_impl(keys, vals, mask_view, post)


def _fused_apply_impl(
    keys: np.ndarray,
    vals: np.ndarray,
    mask_view: MaskView | None,
    post,
) -> tuple[np.ndarray, np.ndarray]:
    if mask_view is not None and len(keys):
        keep = mask_view.allows(keys)
        keys, vals = keys[keep], vals[keep]
    return keys, post(vals)


def fused_select(
    keys: np.ndarray,
    vals: np.ndarray,
    mask_view: MaskView | None,
    spec,
) -> tuple[np.ndarray, np.ndarray]:
    """Predicate filter over a producer's un-materialized result: the
    fusion form of the ``select`` kernel.  *spec* is the select link's
    OpSpec (its ``selector`` holds the IndexUnaryOp and thunk); the mask
    filter mirrors the unfused kernel's push-down order exactly."""
    if _obs_spans.current() is not None or _metrics.registry.enabled:

        def run(acc):
            out = _fused_select_impl(keys, vals, mask_view, spec)
            acc.append(len(out[0]))  # one predicate evaluation per survivor
            return out

        return _observed_kernel(
            "select[fused]", run,
            flops_estimated=len(keys), nnz_in=len(keys),
        )
    return _fused_select_impl(keys, vals, mask_view, spec)


def _fused_select_impl(
    keys: np.ndarray,
    vals: np.ndarray,
    mask_view: MaskView | None,
    spec,
) -> tuple[np.ndarray, np.ndarray]:
    from .._sparseutil import unflatten_keys
    from ..types import cast_array

    if mask_view is not None and len(keys):
        keep = mask_view.allows(keys)
        keys, vals = keys[keep], vals[keep]
    if len(keys) == 0:
        return keys, vals.copy()
    iuop, thunk = spec.selector
    ncols = getattr(spec.out, "ncols", None)
    if ncols is not None:
        rows, cols = unflatten_keys(keys, ncols)
    else:
        rows, cols = keys, np.zeros(len(keys), dtype=np.int64)
    vals_in = (
        cast_array(vals, spec.inputs[0].type, iuop.d_in)
        if iuop.d_in is not None
        else vals
    )
    verdict = np.asarray(
        iuop.apply_arrays(vals_in, rows, cols, thunk)
    ).astype(bool)
    return keys[verdict], vals[verdict]
