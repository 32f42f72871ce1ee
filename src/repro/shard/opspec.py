"""Shippability gate and task planning for the sharded backend.

:func:`plan_spec` decides, per op, whether its kernel may run on the
worker pool, and if so cuts it into :class:`ShardTask` block tasks.  Tasks
carry *descriptors only*: shared segment names, row windows, and operator
*registry names* — never data and never callables.  Workers rebuild the
operator from :mod:`repro.algebra.predefined`'s registries, which is why
the gate demands the spec's operator be the registry's own instance: a
user-built (or user-defined-type) operator has no name the worker could
resolve, so those ops simply run their own kernel in the parent.

Unshippable ≠ failure.  The gate returning ``None`` is the common case —
UDT domains (object arrays can't live in shared memory), sub-threshold
work (IPC latency would dominate), an ``mxv``/``vxm`` the parent would run
as a column walk (less work than the row intersection the stripes split),
and every non-multiply op class.
Fused chains never get here: they have no T of their own to ship.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..algebra.predefined import SEMIRING_REGISTRY
from ..algebra.semiring import Semiring
from ..operations._kernels import estimate_flops, spgemm_row_work, spmv_walks
from ..parallel import parallel_threshold, shard_workers, row_blocks
from ..types import cast_array

__all__ = ["ShardTask", "NodePlan", "plan_spec", "SHIPPABLE_KINDS"]

#: row ``reduce`` stays in process: one pass over A is too little work to
#: pay for the IPC at any measured size
SHIPPABLE_KINDS = ("mxm", "mxv", "vxm")


@dataclass(frozen=True)
class ShardTask:
    """One block task: operator names + shm layouts + index windows."""

    kind: str
    #: registry name of the Semiring
    op_name: str
    #: layout of the (already published) primary matrix operand, in the
    #: orientation the descriptor demands
    a: object
    #: GrBType name of A's stored domain (worker casts to the op's input)
    a_type: str
    #: row window [lo, hi) of the output this task produces
    lo: int
    hi: int
    b: object | None = None
    b_type: str | None = None
    #: inline vector operand (mxv/vxm), values pre-cast to the mul domain
    v_keys: object | None = None
    v_vals: object | None = None
    #: vxm operand order: multiply runs as v ⊗ A
    swap: bool = False


@dataclass
class NodePlan:
    """A shippable op, cut into tasks, plus what assembly needs."""

    tasks: list = field(default_factory=list)
    out_dtype: object = None
    #: shared segments this plan reads (leased while its tasks are in flight)
    seg_names: tuple = ()


def _registry_semiring(op) -> Semiring | None:
    if isinstance(op, Semiring) and SEMIRING_REGISTRY.get(op.name) is op:
        return op
    return None


def plan_spec(spec, publish, mask_view) -> NodePlan | None:
    """Gate *spec* and, when shippable, plan its block tasks.

    *publish* is the scheduler's publication hook:
    ``publish(view) -> BlockLayout`` (cached per cached view, so repeated
    ops over the same unchanged matrix ship no new bytes).  *mask_view* is
    the op's built mask, which the in-process SpMV direction depends on.
    """
    kind = spec.kind
    if kind not in SHIPPABLE_KINDS:
        return None
    sr = _registry_semiring(spec.op_token)
    if sr is None:
        return None
    d = spec.desc
    threshold = parallel_threshold()
    stripes = shard_workers()

    if kind == "mxm":
        A, B = spec.inputs
        if A.type.is_udt or B.type.is_udt or spec.t_type.is_udt:
            return None
        a_view = A.csc() if d.transpose0 else A.csr()
        b_view = B.csc() if d.transpose1 else B.csr()
        if estimate_flops(a_view, b_view) < threshold:
            return None
        la = publish(a_view)
        lb = publish(b_view)
        plan = NodePlan(
            out_dtype=spec.t_type.np_dtype,
            seg_names=tuple({la.seg_name, lb.seg_name}),
        )
        for blk in row_blocks(spgemm_row_work(a_view, b_view), stripes):
            plan.tasks.append(
                ShardTask(
                    kind="mxm",
                    op_name=sr.name,
                    a=la,
                    a_type=A.type.name,
                    lo=blk.start,
                    hi=blk.stop,
                    b=lb,
                    b_type=B.type.name,
                )
            )
        return plan

    # mxv / vxm
    if kind == "mxv":
        A, u = spec.inputs
        by_csc = d.transpose0
        v_dst, swap = sr.d_in2, False
    else:
        u, A = spec.inputs
        # vxm runs the row kernel on the transposed orientation
        by_csc = not d.transpose1
        v_dst, swap = sr.d_in1, True
    if A.type.is_udt or u.type.is_udt or spec.t_type.is_udt:
        return None
    a_view = A.csc() if by_csc else A.csr()
    if a_view.nnz < threshold:
        return None
    v_keys, v_raw = u._content()
    if spmv_walks(a_view, A.cached_view(csc=not by_csc), v_keys, mask_view):
        return None
    la = publish(a_view)
    v_vals = cast_array(v_raw, u.type, v_dst)
    plan = NodePlan(
        out_dtype=spec.t_type.np_dtype,
        seg_names=(la.seg_name,),
    )
    for blk in row_blocks(np.diff(a_view.indptr), stripes):
        plan.tasks.append(
            ShardTask(
                kind=kind,
                op_name=sr.name,
                a=la,
                a_type=A.type.name,
                lo=blk.start,
                hi=blk.stop,
                v_keys=v_keys,
                v_vals=v_vals,
                swap=swap,
            )
        )
    return plan
