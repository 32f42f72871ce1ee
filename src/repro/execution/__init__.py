"""Execution-model internals: the deferred-op sequence queue used by
nonblocking mode (see :mod:`repro.context` for the public entry points)."""

from .sequence import DeferredOp, OpSpec, QueueStats, SequenceQueue

__all__ = [
    "DeferredOp",
    "OpSpec",
    "SequenceQueue",
    "QueueStats",
]
