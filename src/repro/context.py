"""Execution context: ``GrB_init`` / ``GrB_finalize`` / ``GrB_wait`` (paper
section IV) and the blocking/nonblocking execution modes.

The mode is fixed when the context is created and "can be set only once in
the execution of a program": calling :func:`init` twice, or again after
:func:`finalize`, is an error.  For convenience (and because Python test
suites would be unusable otherwise) a *default* blocking context exists
before any explicit :func:`init`; an explicit ``init`` is only allowed while
the default context is still untouched by ``finalize``.

Beyond the single default context the module supports **multiple
independent contexts** — the substrate the multi-tenant service
(:mod:`repro.service`) builds sessions on.  A :class:`Context` created
directly owns its own mode, per-thread deferred-op queues, and pending
errors.  Each thread holds a *thread-local activation stack*: pushing a
context with :func:`activate` makes every module-level function
(:func:`submit`, :func:`wait`, :func:`complete`, ...) route to it on this
thread only, so concurrent sessions cannot corrupt each other's mode or
sequence state.  The context object is the routing token (create it on
one thread, ``with activate(ctx):`` on another); a *pending sequence*
belongs to the thread that queued it.  The paper's per-thread-sequence
discipline applies verbatim: each thread gets its own queue inside the
context, and sequences must not share non-read-only objects.

:func:`_reset` restores the fresh pre-init state — it is not part of the
GraphBLAS API and exists for test isolation only.
"""

from __future__ import annotations

import enum
import threading
from typing import Any, Callable

from .execution.sequence import DeferredOp, SequenceQueue
from .execution.planner.driver import instrument as _instrument
from .obs.tracing import current_trace as _current_trace
from .info import (
    ExecutionError,
    GraphBLASError,
    InvalidValue,
    Panic,
    clear_last_error,
    error,
)

__all__ = [
    "Mode",
    "Context",
    "init",
    "finalize",
    "wait",
    "current_mode",
    "current_context",
    "activate",
    "error",
    "submit",
    "complete",
    "queue_stats",
    "is_initialized",
]


class Mode(enum.Enum):
    BLOCKING = "GrB_BLOCKING"
    NONBLOCKING = "GrB_NONBLOCKING"


class Context:
    """One library context: a mode plus per-thread sequences.

    Sequences are *per thread* (section IV: "a multithreaded program may
    have a distinct sequence per thread, but those sequences must not
    share objects unless the shared objects are read-only").  Each thread
    gets its own deferred-op queue and pending-error slot; the mode and
    lifecycle flags are per-context.

    The process-wide default context is managed by :func:`init` /
    :func:`finalize`; additional contexts are constructed directly
    (``Context(Mode.NONBLOCKING)``) and routed to via :func:`activate`.
    """

    def __init__(self, mode: Mode, *, name: str = ""):
        self.mode = mode
        self.name = name
        self._tls = threading.local()
        self.explicitly_initialized = False
        self.finalized = False

    @property
    def queue(self) -> SequenceQueue:
        q = getattr(self._tls, "queue", None)
        if q is None:
            q = SequenceQueue()
            self._tls.queue = q
        return q

    @property
    def pending_error(self) -> GraphBLASError | None:
        return getattr(self._tls, "pending_error", None)

    @pending_error.setter
    def pending_error(self, exc: GraphBLASError | None) -> None:
        self._tls.pending_error = exc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = self.name or hex(id(self))
        return f"<Context {tag} {self.mode.value}>"


_lifecycle_lock = threading.Lock()
_ctx = Context(Mode.BLOCKING)  # the process-wide default context
_active = threading.local()  # per-thread stack of explicitly activated contexts


def _stack() -> list:
    s = getattr(_active, "stack", None)
    if s is None:
        s = []
        _active.stack = s
    return s


def _current() -> Context:
    s = getattr(_active, "stack", None)
    if s:
        return s[-1]
    return _ctx


def current_context() -> Context:
    """The context module-level calls route to on this thread."""
    return _current()


class activate:
    """Make *ctx* the current context on this thread for the ``with`` body.

    A :class:`Context` built on one thread can be activated on any other —
    the object itself is the routing token.  Activations nest (a per-thread
    stack), so a service worker can run a session's sequence without
    disturbing whatever the thread's surrounding code had active.
    """

    __slots__ = ("_ctx",)

    def __init__(self, ctx: Context):
        if not isinstance(ctx, Context):
            raise InvalidValue(f"activate() needs a Context, got {type(ctx).__name__}")
        self._ctx = ctx

    def __enter__(self) -> Context:
        if self._ctx.finalized:
            raise InvalidValue("cannot activate a finalized context")
        _stack().append(self._ctx)
        return self._ctx

    def __exit__(self, *exc) -> None:
        s = _stack()
        # strict LIFO in correct code; tolerate a foreign frame so an
        # exception thrown between activations cannot corrupt the stack
        if s and s[-1] is self._ctx:
            s.pop()
        elif self._ctx in s:
            s.remove(self._ctx)


def is_initialized() -> bool:
    return _current().explicitly_initialized


def current_mode() -> Mode:
    return _current().mode


def init(mode: Mode = Mode.BLOCKING) -> None:
    """``GrB_init``: create the library context with the given mode.

    May be called at most once, and not after :func:`finalize`.  ``init``
    always targets the process-wide *default* context; it is rejected on a
    thread that has a session context activated (sessions fix their mode
    at construction).
    """
    global _ctx
    if getattr(_active, "stack", None):
        raise InvalidValue(
            "GrB_init inside an activated session context is not allowed"
        )
    with _lifecycle_lock:
        if _ctx.finalized:
            raise InvalidValue(
                "GrB_init after GrB_finalize is not allowed (section IV)"
            )
        if _ctx.explicitly_initialized:
            raise InvalidValue("GrB_init may be called only once")
        if len(_ctx.queue):
            raise InvalidValue("GrB_init called inside an active sequence")
        _ctx = Context(mode)
        _ctx.explicitly_initialized = True
    clear_last_error()


def finalize() -> None:
    """``GrB_finalize``: terminate the current context.

    Any still-deferred work is completed first (an implementation choice the
    spec permits; dropping it silently would violate program order).
    """
    ctx = _current()
    if ctx.finalized:
        raise InvalidValue("GrB_finalize called twice")
    try:
        wait()
    finally:
        ctx.finalized = True


def _check_usable(ctx: Context) -> None:
    if ctx.finalized:
        raise InvalidValue("GraphBLAS context has been finalized")


def submit(
    thunk: Callable[[], None],
    *,
    reads: tuple[Any, ...],
    writes: Any,
    label: str,
    overwrites_output: bool = False,
    deferrable: bool = True,
    spec: Any = None,
) -> None:
    """Route a validated method body through the execution model.

    In blocking mode (or for non-deferrable methods) the computation runs
    now — after first draining the queue so program order is preserved.
    In nonblocking mode deferrable work joins the sequence; *spec* (an
    :class:`~repro.execution.sequence.OpSpec`, when the caller is a
    standard Table II operation) gives the drain-time planner the
    structure it needs to fuse, dedupe, and schedule the op.
    """
    ctx = _current()
    _check_usable(ctx)
    if ctx.mode is Mode.NONBLOCKING and deferrable:
        # the raw thunk joins the queue; span instrumentation is attached
        # at drain time by the planner, so each *scheduled node* (plain,
        # fused, or CSE'd) records exactly one op span under the capture
        # live when it actually runs
        ctx.queue.push(
            DeferredOp(
                thunk=thunk,
                reads=reads,
                writes=writes,
                label=label,
                overwrites_output=overwrites_output,
                spec=spec,
                trace=_current_trace(),
            )
        )
        return
    if len(ctx.queue):
        _drain(ctx)
    _instrument(thunk, label, deferred=False)()


def _poison(ops) -> None:
    for op in ops:
        target = op.writes
        if hasattr(target, "_poison"):
            target._poison()


def _drain(ctx: Context) -> None:
    try:
        ctx.queue.drain()
    except GraphBLASError as exc:
        _poison(ctx.queue.failed_tail)
        if ctx.pending_error is None:
            ctx.pending_error = exc
    except Exception as exc:  # foreign failure inside a user operator
        _poison(ctx.queue.failed_tail)
        if ctx.pending_error is None:
            ctx.pending_error = Panic(f"unhandled error in deferred op: {exc!r}")


def wait() -> None:
    """``GrB_wait``: complete the sequence.

    Raises the first execution error encountered while running the deferred
    ops (section V); further detail is available via :func:`error`.
    """
    ctx = _current()
    _check_usable(ctx)
    _drain(ctx)
    if ctx.pending_error is not None:
        exc = ctx.pending_error
        ctx.pending_error = None
        raise exc


def complete(obj: Any = None) -> None:
    """Force completion of *obj* (or everything when ``None``).

    Called by every method that copies values out of an opaque object; per
    section V such methods surface any execution error involved in defining
    the object's value.
    """
    ctx = _current()
    _check_usable(ctx)
    if len(ctx.queue) == 0 and ctx.pending_error is None:
        return
    if obj is None or ctx.queue.pending_for(obj) or ctx.pending_error is not None:
        wait()


def complete_before_free(obj: Any) -> None:
    """Drain the sequence if any queued op still references *obj*.

    ``GrB_free`` may be called while a sequence is pending; the freed
    object's storage must survive until every deferred op that reads it has
    run.  Execution errors are recorded (surfacing at the next ``wait`` or
    forced completion) rather than raised from ``free``.
    """
    ctx = _current()
    if not ctx.finalized and ctx.queue.involves(obj):
        _drain(ctx)


def queue_stats() -> dict[str, int]:
    """Deferred-queue counters (enqueued/executed/elided/drains plus the
    planner's fused/cse/max_width)."""
    return _current().queue.stats.snapshot()


def _reset() -> None:
    """Testing hook: restore the fresh default context."""
    global _ctx
    with _lifecycle_lock:
        _ctx = Context(Mode.BLOCKING)
    _active.stack = []
    from .execution.planner import reset_options
    from .obs import metrics as _obs_metrics
    from .obs import spans as _obs_spans

    reset_options()
    _obs_spans.force_disarm()  # a leaked capture must not poison later runs
    _obs_metrics.registry.disable()
    clear_last_error()
