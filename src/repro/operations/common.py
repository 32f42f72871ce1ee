"""The shared three-step semantics of every GraphBLAS operation (section VI):

1. form the internal inputs from the arguments according to the descriptor
   (transposes, mask complement) and check domains/dimensions — API errors
   are raised here, at call time, in both execution modes;
2. carry out the computation, producing an internal result **T**;
3. accumulate **Z = C ⊙ T** when an accumulator is given, then write **Z**
   into **C** under the write-mask, in *replace* or *merge* mode.

Steps 2–3 run inside a deferred thunk so nonblocking mode can queue them;
step 1 always runs immediately ("methods return after input arguments have
been verified", section IV).  Step 2 is where implementations may differ
(section III-B): :func:`execute_standard` takes T from the op's kernel,
from the CSE cache, or — under the ``processes`` backend — from the shard
worker pool.  Every source hands T over already inside the mask, so step 3
— :func:`write_step`, one function for every Table II operation, assign
and row/col assign included — never tests T or Z against the mask again
and tests each of C's stored keys at most once.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from .. import context
from .._sparseutil import union_keys
from ..obs import metrics as _metrics
from ..obs import spans as _obs_spans
from ..containers.base import OpaqueObject
from ..containers.mask import MaskView, build_mask_view, validate_mask_domain
from ..containers.matrix import Matrix
from ..containers.vector import Vector
from ..descriptor import Flags
from ..execution.sequence import OpSpec
from ..info import DimensionMismatch, DomainMismatch, InvalidValue, NullPointer
from ..kernels import codegen as _codegen
from ..kernels.interpreter import interpret_chain
from ..ops.base import BinaryOp
from ..parallel import get_backend, get_kernel_backend
from ..types import GrBType, can_cast, cast_array

__all__ = [
    "validate_accum",
    "validate_mask_shape",
    "accumulate",
    "write_step",
    "run_write_pipeline",
    "submit_standard_op",
    "execute_standard",
    "execute_chain",
    "check_output",
    "check_input",
]


def check_output(C) -> None:
    if C is None:
        raise NullPointer("output object is GrB_NULL")
    if not isinstance(C, (Matrix, Vector)):
        raise InvalidValue(f"output must be a GraphBLAS collection, got {type(C)}")
    C._check_valid()


def check_input(X, what: str) -> None:
    if X is None:
        raise NullPointer(f"{what} is GrB_NULL")
    if not isinstance(X, (Matrix, Vector)):
        raise InvalidValue(f"{what} must be a GraphBLAS collection, got {type(X)}")
    X._check_valid()


def validate_accum(accum, C, t_type: GrBType) -> None:
    """Domain checks for the optional accumulator ⊙ (Table II).

    ``Z(i,j) = accum(C(i,j), T(i,j))`` requires C castable to the accum's
    first input, T to its second, and its output back to C's domain.
    """
    if accum is None:
        if not can_cast(t_type, C.type):
            raise DomainMismatch(
                f"result domain {t_type.name} cannot be cast to output domain "
                f"{C.type.name}"
            )
        return
    if not isinstance(accum, BinaryOp):
        raise InvalidValue("accum must be a BinaryOp or GrB_NULL")
    if not can_cast(C.type, accum.d_in1):
        raise DomainMismatch(
            f"output domain {C.type.name} cannot feed accum input "
            f"{accum.d_in1.name}"
        )
    if not can_cast(t_type, accum.d_in2):
        raise DomainMismatch(
            f"result domain {t_type.name} cannot feed accum input "
            f"{accum.d_in2.name}"
        )
    if not can_cast(accum.d_out, C.type):
        raise DomainMismatch(
            f"accum output {accum.d_out.name} cannot be cast to output domain "
            f"{C.type.name}"
        )


def validate_mask_shape(mask, C) -> None:
    """The mask's dimensions must match the output's (Fig. 2b)."""
    if mask is None:
        return
    check_input(mask, "Mask")
    validate_mask_domain(mask)
    if isinstance(C, Matrix):
        if not isinstance(mask, Matrix) or mask.shape != C.shape:
            raise DimensionMismatch(
                "mask dimensions must match the output matrix dimensions"
            )
    else:
        if not isinstance(mask, Vector) or mask.size != C.size:
            raise DimensionMismatch(
                "mask size must match the output vector size"
            )


def accumulate(
    c_keys: np.ndarray,
    c_vals: np.ndarray,
    c_type: GrBType,
    t_keys: np.ndarray,
    t_vals: np.ndarray,
    t_type: GrBType,
    accum: BinaryOp,
) -> tuple[np.ndarray, np.ndarray]:
    """Step 3a with an accumulator: ``Z = C ⊙ T``, in C's domain.

    The pattern is the union: C-only entries persist, T-only entries are
    cast in, and intersecting entries combine via the accumulator with the
    spec's casting at each boundary.  The arrays are always fresh.
    """

    def combine(cv: np.ndarray, tv: np.ndarray) -> np.ndarray:
        a = cast_array(cv, c_type, accum.d_in1)
        b = cast_array(tv, t_type, accum.d_in2)
        return cast_array(accum.apply_arrays(a, b), accum.d_out, c_type)

    return union_keys(
        c_keys,
        c_vals,
        t_keys,
        t_vals,
        c_type.np_dtype,
        combine,
        cast_a=lambda x: x,  # already in C's domain
        cast_b=lambda x: cast_array(x, t_type, c_type),
    )


def write_step(
    c_keys: np.ndarray,
    c_vals: np.ndarray,
    c_type: GrBType,
    t_keys: np.ndarray,
    t_vals: np.ndarray,
    t_type: GrBType,
    accum: BinaryOp | None,
    mask_view: MaskView | None,
    replace: bool,
    outside: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Step 3: C's new content from its stored ``(c_keys, c_vals)`` and T.

    T must lie inside the mask.  Then ``Z ∩ M = (C ∩ M) ⊙ T``, and C's
    entries outside M are C-only entries of Z, which ⊙ leaves as they are;
    so C's keys are tested against the mask at most once, and only when
    the result depends on it:

    * with an accumulator, C becomes ``C ⊙ T`` — or ``(C ∩ M) ⊙ T`` in
      replace mode, the one case that tests C;
    * without one, C becomes T plus the stored entries of C that survive:
      none without a mask or in replace mode, those outside the mask in
      merge mode.

    *outside* (assign only) marks C's entries outside the assign region.
    Without an accumulator they survive too, unless replace mode's mask
    excludes them.  The returned arrays never alias T's, so C owns them.
    """
    if accum is not None:
        if mask_view is not None and replace:
            inside = mask_view.allows(c_keys)
            c_keys, c_vals = c_keys[inside], c_vals[inside]
        return accumulate(
            c_keys, c_vals, c_type, t_keys, t_vals, t_type, accum
        )
    t_vals = cast_array(t_vals, t_type, c_type)
    if mask_view is None:
        survive = outside
    elif replace:
        survive = None if outside is None else outside & mask_view.allows(c_keys)
    else:
        survive = ~mask_view.allows(c_keys)
        if outside is not None:
            survive |= outside
    if survive is None or not survive.any():
        # pass-through kernels (transpose, eWise with one empty side,
        # accum-free casts) can hand over arrays aliasing an input's
        # storage or cache; C must own its content
        return t_keys.copy(), np.array(t_vals, copy=True)
    keys = np.concatenate([c_keys[survive], t_keys])
    vals = np.concatenate([c_vals[survive], t_vals])
    order = np.argsort(keys, kind="stable")
    return keys[order], vals[order]


def run_write_pipeline(
    C,
    t_keys: np.ndarray,
    t_vals: np.ndarray,
    t_type: GrBType,
    accum: BinaryOp | None,
    mask_view: MaskView | None,
    replace: bool,
    outside: np.ndarray | None = None,
) -> None:
    """:func:`write_step` against C itself, at completion time inside the
    deferred thunk."""
    c_keys, c_vals = C._content()
    C._set_content(*write_step(
        c_keys, c_vals, C.type, t_keys, t_vals, t_type,
        accum, mask_view, replace, outside,
    ))
    if _obs_spans.current() is not None or _metrics.registry.enabled:
        # the innermost open span here is the op body (kernel spans have
        # closed), so the realized output size lands on the right record
        nnz_out = len(C._content()[0])
        _obs_spans.annotate(nnz_t=len(t_keys), nnz_out=nnz_out)
        _metrics.registry.inc("op.writes")
        _metrics.registry.inc("op.nnz_out", nnz_out)


def execute_standard(
    spec: OpSpec,
    t: tuple[np.ndarray, np.ndarray] | None = None,
    capture: Callable[[np.ndarray, np.ndarray], None] | None = None,
) -> None:
    """Run one standard op from its :class:`OpSpec` — the only single-op
    executor: eager calls, planned nodes and CSE reuses all end here, and
    here is where T's source is chosen.

    *t* is a precomputed ``(t_keys, t_vals)`` from the CSE cache and skips
    the computation.  Otherwise, under the ``processes`` backend, the shard
    pool is asked first (:func:`repro.shard.scheduler.compute`) and the
    spec's own kernel runs when it declines.  Either way T arrives inside
    the mask: the kernel restricts it, and so does :func:`compute` for the
    unmasked stripes the workers return — value-identical, because mask
    push-down only ever drops whole output cells.  *capture* receives that
    T, so a later duplicate (same mask, by the CSE fingerprint) can reuse
    it.  Whatever the source, :func:`write_step` runs against the spec's
    own output/mask/accum/descriptor.
    """
    d = spec.desc
    if _obs_spans.current() is not None:
        _obs_spans.annotate(
            kind=spec.kind,
            nnz_in=int(sum(len(x._content()[0]) for x in spec.inputs)),
        )
    mask_view = build_mask_view(spec.mask, d.mask_complement, d.mask_structure)
    if t is None:
        if get_backend() == "processes":
            from ..shard.scheduler import compute

            t = compute(spec, mask_view)
        if t is None:
            t = spec.kernel(mask_view)
        if capture is not None:
            capture(*t)
    run_write_pipeline(
        spec.out, t[0], t[1], spec.t_type, spec.accum, mask_view, d.replace
    )


def _producer_result(spec: OpSpec) -> tuple[np.ndarray, np.ndarray]:
    """What an *overwriting* op would leave in its output, without writing:
    sorted flat keys plus values cast to the output's domain.

    Legality (established by the planner before calling): ``accum is None``
    and ``mask is None or replace``, so the output's prior content never
    enters the result — it is exactly T (already inside the mask), cast.
    """
    d = spec.desc
    mask_view = build_mask_view(spec.mask, d.mask_complement, d.mask_structure)
    t_keys, t_vals = spec.kernel(mask_view)
    return t_keys, cast_array(t_vals, spec.t_type, spec.out.type)


def execute_chain(specs: list[OpSpec]) -> None:
    """Run a fused chain ``[producer, link, ...]`` as one streamed kernel.

    The producer's output is never materialized: its result streams through
    every absorbed link (``apply`` / ``select`` / ``reduce``) and only the
    tail runs a write pipeline.  The planner's fusion pass has already
    proven every intermediate value unobservable.

    *Which* kernel suite computes the stream is
    :func:`repro.parallel.get_kernel_backend`'s decision (interpreter or
    codegen); the op span records the choice, and whether a compiled
    kernel ran, as provenance.
    """
    backend = get_kernel_backend()
    _obs_spans.annotate(backend=backend, compiled=False)
    if backend == "codegen":
        _codegen.run_chain(specs)
    else:
        interpret_chain(specs)


def submit_standard_op(
    C,
    mask,
    accum: BinaryOp | None,
    d: Flags,
    *,
    label: str,
    t_type: GrBType,
    kernel: Callable[[MaskView | None], tuple[np.ndarray, np.ndarray]],
    inputs: tuple[OpaqueObject, ...],
    op_token: Any = None,
    post: Callable[[np.ndarray], np.ndarray] | None = None,
    reducer: Any = None,
    selector: Any = None,
) -> None:
    """Package a validated operation into the execution model.

    *d* is the call's descriptor as :func:`~repro.descriptor.effective`
    resolved it at the call.  *kernel* computes T from the inputs' content; it runs at execution time,
    receives the materialized mask view (or ``None``) and returns T within
    the mask — pushed down into the computation where that saves work,
    else cut once with :meth:`MaskView.restrict`.  :func:`write_step`
    relies on it and never filters T again.  API errors must already have
    been raised by the caller; this function only routes the work.

    *op_token* (the operator's identity), *post* (an apply-style value map),
    *reducer* (a row-reduction monoid) and *selector* (a select predicate
    with its thunk) are planner metadata: they make the op eligible for
    common-subexpression elimination and for fusion as a consumer.  Ops
    without them still join the dataflow DAG via the generic spec.
    """
    spec = OpSpec(
        kind=label,
        out=C,
        mask=mask,
        accum=accum,
        desc=d,
        t_type=t_type,
        inputs=tuple(x for x in inputs if x is not None),
        kernel=kernel,
        op_token=op_token,
        post=post,
        reducer=reducer,
        selector=selector,
    )

    def thunk():
        execute_standard(spec)

    # C's prior content is irrelevant only if nothing merges it back in —
    # and only if C is not simultaneously an input or the mask (Fig. 3
    # line 43 aliases the output with an input; the kernel reads it)
    aliased = any(x is C for x in inputs) or mask is C
    overwrites = accum is None and (mask is None or d.replace) and not aliased
    reads = tuple(x for x in inputs if x is not None)
    if mask is not None:
        reads += (mask,)
    if not overwrites:
        reads += (C,)
    context.submit(
        thunk,
        reads=reads,
        writes=C,
        label=label,
        overwrites_output=overwrites,
        spec=spec,
    )
