"""The interpreter backend: hand-written kernels, link-by-link streaming.

:func:`interpret_chain` generalizes PR 1's pair fusion to arbitrary-length
chains.  The head's result streams through every link — each one a mask
filter plus its transform; a middle link then casts into the
intermediate's domain (exactly what an overwrite-shaped write would have
stored) — and the tail's T, already inside its mask, goes through the
standard write step against the real output.

Both backends lean on this module: ``operations.common.execute_chain``
calls it for the ``interpreter`` backend, and codegen falls back here per
chain when the chain is not compiled or a generated kernel misbehaves.
"""

from __future__ import annotations

import numpy as np

__all__ = ["interpret_chain"]


def _link_t(spec, keys, vals, mask_view):
    """One link's mask-filtered T from the incoming stream (in t_type),
    computed by the op's own kernel body and observed as the kernel
    ``<op>[fused]``, estimated at one step per incoming element."""
    from ..operations import _kernels as K
    from ..types import cast_array

    n = len(keys)
    if spec.reducer is not None:
        # as the unfused reduce kernel: fold the rows, then cut the reduced
        # vector to the mask
        ncols = np.int64(spec.inputs[0].ncols)
        v = cast_array(vals, spec.inputs[0].type, spec.t_type)
        t = K._observed_kernel(
            "reduce_rows[fused]",
            lambda acc: K.reduce_rows(keys // ncols, v, spec.reducer, acc),
            lambda: (n, n),
        )
        return t if mask_view is None else mask_view.restrict(*t)
    if spec.post is not None:
        label, body, args = "apply[fused]", K.map_values, (spec.post,)
    else:
        label, body = "select[fused]", K.filter_values
        args = (spec.selector, spec.inputs[0].type, spec.out._coords)
    return K._observed_kernel(
        label, lambda acc: body(keys, vals, mask_view, *args, acc),
        lambda: (n, n),
    )


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
    t_keys, t_vals = _link_t(tail, keys, vals, mask_view)
    run_write_pipeline(
        tail.out, t_keys, t_vals, tail.t_type, tail.accum, mask_view,
        d.replace,
    )
