"""The interpreter backend: hand-written kernels, link-by-link streaming.

:func:`interpret_chain` generalizes PR 1's pair fusion to arbitrary-length
chains.  The head's result streams through every middle link — each one a
mask filter plus its transform, then a cast into the intermediate's domain
(exactly what an overwrite-shaped write would have stored) — and the tail
runs the full write pipeline against the real output
(``operations.common.execute_chain`` is the only caller).

Both backends lean on this module: codegen falls back here per chain when
a signature is ineligible or a generated kernel misbehaves.
"""

from __future__ import annotations

from .interface import KernelBackend

__all__ = ["InterpreterBackend", "interpret_chain"]


def _link_t(spec, keys, vals, mask_view):
    """One link's mask-filtered T from the incoming stream (in t_type)."""
    from ..operations import _kernels as K
    from ..types import cast_array

    if spec.reducer is not None:
        # the unfused reduce kernel ignores the mask (it reduces the input,
        # the pipeline filters the reduced vector) — stream order matches
        v = cast_array(vals, spec.inputs[0].type, spec.t_type)
        keys, vals = K.reduce_rows_flat(
            keys, v, spec.inputs[0].ncols, spec.reducer
        )
        if mask_view is not None and len(keys):
            keep = mask_view.allows(keys)
            keys, vals = keys[keep], vals[keep]
        return keys, vals
    if spec.post is not None:
        return K.fused_apply(keys, vals, mask_view, spec.post)
    return K.fused_select(keys, vals, mask_view, spec)


def interpret_chain(specs) -> None:
    """Run a fused chain with the hand-written kernel suite."""
    from ..containers.mask import build_mask_view
    from ..operations.common import _producer_result, run_write_pipeline
    from ..types import cast_array

    keys, vals = _producer_result(specs[0])
    for spec in specs[1:-1]:
        d = spec.desc
        mask_view = build_mask_view(
            spec.mask, d.mask_complement, d.mask_structure
        )
        keys, vals = _link_t(spec, keys, vals, mask_view)
        # middle links are overwrite-shaped: the intermediate would hold
        # exactly this, cast into its own domain
        vals = cast_array(vals, spec.t_type, spec.out.type)
    tail = specs[-1]
    d = tail.desc
    mask_view = build_mask_view(tail.mask, d.mask_complement, d.mask_structure)
    # a reduce tail leaves the mask filter to the pipeline's push-down
    # (matching the unfused kernel exactly); apply/select filter up front
    t_keys, t_vals = _link_t(
        tail, keys, vals, None if tail.reducer is not None else mask_view
    )
    run_write_pipeline(
        tail.out, tail.mask, tail.accum, d, t_keys, t_vals, tail.t_type,
        mask_view=mask_view,
    )


class InterpreterBackend(KernelBackend):
    """The default suite: every kernel is the hand-written numpy one."""

    name = "interpreter"

    def run_chain(self, specs) -> None:
        from ..obs import spans as _obs_spans

        if _obs_spans.current() is not None:
            _obs_spans.annotate(compiled=False)
        interpret_chain(specs)
