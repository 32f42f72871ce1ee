"""Deferred-execution machinery for nonblocking mode (paper section IV).

In nonblocking mode a GraphBLAS method may return after its arguments have
been verified; the actual computation joins the current *sequence* and runs
when the sequence is completed — by ``wait()`` or by any method that moves
values from an opaque object into non-opaque storage.

Each queued :class:`DeferredOp` records the opaque objects it reads and the
one it writes, plus (for the standard Table II operations) an
:class:`OpSpec` describing the computation structurally.  As ops are
pushed, the queue keeps a :class:`Touches` index: per object, the positions
that read it and the positions that write it.  At drain time the queue
hands the sequence and its index to the planner
(:mod:`repro.execution.planner`), which lifts it into a dataflow DAG and
runs dead-op elimination, producer→consumer fusion, common-subexpression
elimination, and a level-order scheduler over it — the "lazy evaluation,
... operations chained together and fused" freedom the paper grants
nonblocking implementations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..obs import spans as _spans

__all__ = ["DeferredOp", "OpSpec", "SequenceQueue", "QueueStats", "Touches"]


@dataclass(slots=True)
class OpSpec:
    """Structural description of a standard (validate/kernel/write) op.

    Present on every :class:`DeferredOp` produced by
    ``operations.common.submit_standard_op``; ``None`` on ad-hoc deferred
    work (``assign`` splices, container mutation).  The planner uses it to
    re-run the op in pieces: the *kernel* computes the internal result T
    from the inputs' current content, and the write pipeline folds T into
    *out* under *mask*/*accum*/*desc*.
    """

    #: op kind — the Table II method name ("mxm", "apply", "reduce", ...)
    kind: str
    #: the output object C
    out: Any
    #: write-mask object (or None)
    mask: Any
    #: accumulator BinaryOp (or None)
    accum: Any
    #: the call-time :class:`~repro.descriptor.Flags` (never None)
    desc: Any
    #: domain of the internal result T
    t_type: Any
    #: opaque input objects, in signature order (no Nones)
    inputs: tuple
    #: mask_view -> (t_keys, t_vals); pure: reads only the inputs' content
    kernel: Callable[[Any], tuple] | None = None
    #: operator identity for CSE fingerprinting (None = never CSE'd)
    op_token: Any = None
    #: apply-family value map: vals in input's domain -> vals in t_type
    #: (present only on fusable ``apply`` consumers)
    post: Callable | None = None
    #: row-reduction monoid/shim (present only on matrix→vector ``reduce``)
    reducer: Any = None
    #: ``(IndexUnaryOp, thunk scalar)`` of a ``select`` (present only there;
    #: deliberately *not* op_token — the CSE fingerprint has no thunk slot,
    #: so select must never be CSE'd by operator identity alone)
    selector: Any = None


@dataclass(slots=True)
class DeferredOp:
    """One queued GraphBLAS method invocation."""

    thunk: Callable[[], None]
    #: opaque objects whose *current* content the op consumes (inputs, mask,
    #: and the output itself when merged/accumulated into)
    reads: tuple[Any, ...]
    #: the single opaque output object
    writes: Any
    label: str = "?"
    #: True when the op ignores the prior content of ``writes`` entirely
    #: (no accum, and replace-or-total overwrite) — the dead-op criterion
    overwrites_output: bool = False
    #: structural metadata for the planner (standard ops only)
    spec: OpSpec | None = None
    #: originating request identity (:class:`repro.obs.tracing.TraceContext`)
    #: stamped at enqueue time; None outside a traced request
    trace: Any = None


@dataclass(slots=True)
class QueueStats:
    enqueued: int = 0
    executed: int = 0
    elided: int = 0
    drains: int = 0
    #: producer→consumer pairs executed as one fused kernel
    fused: int = 0
    #: ops whose kernel was skipped by common-subexpression elimination
    cse: int = 0
    #: widest level the DAG scheduler has seen (1 = fully serial sequences)
    max_width: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "enqueued": self.enqueued,
            "executed": self.executed,
            "elided": self.elided,
            "drains": self.drains,
            "fused": self.fused,
            "cse": self.cse,
            "max_width": self.max_width,
        }


class Touches:
    """Where a sequence touches each opaque object.

    ``readers[id(x)]`` / ``writers[id(x)]`` list the positions of the ops
    that read / write *x*, in program order; a position appears once per
    object however many operand slots name it.  ``id`` is the right key:
    opaque objects alias only as themselves, and a queued op holds its
    objects alive, so no id is reused while the sequence is pending.
    """

    __slots__ = ("readers", "writers")

    def __init__(self):
        self.readers: dict[int, list[int]] = {}
        self.writers: dict[int, list[int]] = {}

    def add(self, pos: int, op: DeferredOp) -> None:
        """Index *op* at position *pos* (positions arrive in order)."""
        readers = self.readers
        for r in op.reads:
            at = readers.get(id(r))
            if at is None:
                readers[id(r)] = [pos]
            elif at[-1] != pos:
                at.append(pos)
        at = self.writers.get(id(op.writes))
        if at is None:
            self.writers[id(op.writes)] = [pos]
        else:
            at.append(pos)

    @classmethod
    def of(cls, ops: list[DeferredOp]) -> "Touches":
        index = cls()
        for pos, op in enumerate(ops):
            index.add(pos, op)
        return index


class SequenceQueue:
    """FIFO of deferred ops for one sequence (single-threaded, as the paper
    requires: sequences must not share non-read-only objects)."""

    def __init__(self):
        self._ops: list[DeferredOp] = []
        self._touches = Touches()
        self.stats = QueueStats()
        self._failed_tail: list[DeferredOp] = []

    def __len__(self) -> int:
        return len(self._ops)

    def push(self, op: DeferredOp) -> None:
        self._touches.add(len(self._ops), op)
        self._ops.append(op)
        self.stats.enqueued += 1

    def pending_for(self, obj: Any) -> bool:
        """Is *obj* written by any queued op (i.e. not yet *complete*)?"""
        return id(obj) in self._touches.writers

    def involves(self, obj: Any) -> bool:
        """Is *obj* read or written by any queued op?"""
        index = self._touches
        return id(obj) in index.writers or id(obj) in index.readers

    def drain(self) -> None:
        """Complete the sequence through the planner.

        The queued ops are lifted into a dataflow DAG, optimized (dead-op
        elimination, fusion, CSE — individually switchable via
        ``repro.planner.configure``), and executed in a hazard-respecting
        order.  On an execution error the remaining ops are discarded and
        their output objects poisoned by the caller (see ``Context.drain``);
        the exception propagates.
        """
        if not self._ops:
            return
        self.stats.drains += 1
        ops, touches = self._ops, self._touches
        self._ops, self._touches = [], Touches()
        sink = _spans.current()
        before = self.stats.snapshot() if sink is not None else {}
        plan = build_plan(ops, self.stats, touches)
        sp = (
            sink.open("drain", "drain", ops=len(ops), deferred=True)
            if sink is not None
            else None
        )
        try:
            plan.run()
        finally:
            if sp is not None:
                after = self.stats.snapshot()
                sp.attrs.update(
                    elided=after["elided"] - before["elided"],
                    fused=after["fused"] - before["fused"],
                    cse=after["cse"] - before["cse"],
                    executed=after["executed"] - before["executed"],
                    max_width=after["max_width"],
                )
                sink.close(sp)
            # hand back the failed op and the un-run tail so the context can
            # poison their outputs (a failed op's output value was never
            # computed — using it later is INVALID_OBJECT, Fig. 2c)
            self._failed_tail = plan.failed_ops

    @property
    def failed_tail(self) -> list[DeferredOp]:
        return self._failed_tail


# bound last: the planner imports this module's classes
from .planner import build_plan  # noqa: E402
