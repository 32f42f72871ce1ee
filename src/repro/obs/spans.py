"""Structured spans: the timing/provenance records every execution path emits.

A :class:`Span` is one timed region — an operation body, a kernel
invocation, a queue drain, or a user-labelled block — carrying its label,
kind, wall-clock interval, issuing thread, and a free-form ``attrs`` dict
(estimated vs realized flops, input/output nnz, fusion/CSE provenance,
block counts, ...).  Spans nest: each thread keeps a stack of open spans,
so a kernel span opened inside an op body records that op as its parent
and exporters can reconstruct the call tree.

Arming is process-global and *single*: one :class:`SpanSink` at a time
(:func:`arm` / :func:`disarm`, normally driven by :func:`repro.obs.capture`).
The disarmed fast path is one module-global read — hot paths do

    sink = spans.current()
    if sink is None:
        ...  # untouched seed code path

so an un-armed process does literally no extra work per operation.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "SpanSink",
    "span",
    "current",
    "arm",
    "disarm",
    "force_disarm",
    "arm_ring",
    "disarm_ring",
    "current_ring",
    "annotate",
    "annotate_add",
    "wrap_thunk",
]

_lock = threading.Lock()
_sink: "SpanSink | None" = None  # read lock-free on every hot path
#: an always-on bounded recorder sink (the flight recorder's ring); only
#: consulted when no capture sink is armed, plus teed into on close so the
#: ring keeps rolling through capture windows
_ring: "SpanSink | None" = None
_tls = threading.local()


@dataclass(slots=True)
class Span:
    """One timed region.  ``t0``/``t1`` are ``perf_counter`` instants."""

    sid: int
    parent: int | None
    label: str
    #: "op" (a method body), "kernel", "drain", "region", or "bench"
    kind: str
    t0: float
    t1: float = 0.0
    thread: str = ""
    tid: int = 0
    #: True when the region ran from the deferred queue rather than eagerly
    deferred: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


def _stack() -> list:
    s = getattr(_tls, "stack", None)
    if s is None:
        s = []
        _tls.stack = s
    return s


class SpanSink:
    """Thread-safe collector of closed spans (one per capture)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)

    def open(self, label: str, kind: str, deferred: bool = False, **attrs) -> Span:
        th = threading.current_thread()
        stack = _stack()
        if stack:
            # request provenance flows downward: a kernel span opened inside
            # a request-attributed op span carries the same originating ids,
            # so exporters can filter a whole trace by request without
            # walking parent chains
            parent_attrs = stack[-1].attrs
            for key in ("request_ids", "trace_ids"):
                if key in parent_attrs and key not in attrs:
                    attrs[key] = parent_attrs[key]
        sp = Span(
            sid=next(self._ids),
            parent=stack[-1].sid if stack else None,
            label=label,
            kind=kind,
            t0=time.perf_counter(),
            thread=th.name,
            tid=th.ident or 0,
            deferred=deferred,
            attrs=attrs,
        )
        stack.append(sp)
        return sp

    def close(self, sp: Span) -> None:
        sp.t1 = time.perf_counter()
        stack = _stack()
        # normally a strict LIFO pop; tolerate a foreign frame so a span
        # leaked across a raised exception cannot corrupt later nesting
        if stack and stack[-1] is sp:
            stack.pop()
        elif sp in stack:
            stack.remove(sp)
        with _lock:
            self.spans.append(sp)
        ring = _ring
        if ring is not None and ring is not self:
            # the flight recorder keeps rolling even while a capture owns
            # the spans — a dump during a capture window must not be blind
            ring.record(sp)

    def record(self, sp: Span) -> None:
        """Append an already-closed span (the ring tee path)."""
        with _lock:
            self.spans.append(sp)


class span:
    """Lightweight context manager: ``with spans.span("label", "region"):``.

    A no-op (beyond one global read) when nothing is armed.
    """

    __slots__ = ("_label", "_kind", "_attrs", "_sink", "_sp")

    def __init__(self, label: str, kind: str = "region", **attrs):
        self._label = label
        self._kind = kind
        self._attrs = attrs
        self._sp = None

    def __enter__(self) -> Span | None:
        sink = _sink
        if sink is None:
            sink = _ring
        self._sink = sink
        if sink is not None:
            self._sp = sink.open(self._label, self._kind, **self._attrs)
        return self._sp

    def __exit__(self, *exc) -> None:
        if self._sp is not None:
            self._sink.close(self._sp)


def current() -> SpanSink | None:
    """The sink hot paths should emit into, or None (the zero-cost check).

    A full capture (:func:`arm`) wins; otherwise the flight-recorder ring
    (:func:`arm_ring`), if installed, keeps receiving spans.
    """
    sink = _sink
    return sink if sink is not None else _ring


def arm(sink: SpanSink) -> None:
    """Make *sink* the process-wide span collector (one at a time)."""
    global _sink
    from ..info import InvalidValue

    with _lock:
        if _sink is not None:
            raise InvalidValue("an observability capture is already active")
        _sink = sink


def disarm(sink: SpanSink) -> None:
    """Disarm *sink*; a different armed sink is left untouched."""
    global _sink
    with _lock:
        if _sink is sink:
            _sink = None


def arm_ring(sink: SpanSink) -> None:
    """Install *sink* as the always-on recorder ring (replace semantics —
    unlike :func:`arm`, a later ring simply supersedes the previous one)."""
    global _ring
    with _lock:
        _ring = sink


def disarm_ring(sink: SpanSink) -> None:
    """Remove *sink* as the recorder ring; a different ring is untouched."""
    global _ring
    with _lock:
        if _ring is sink:
            _ring = None


def current_ring() -> SpanSink | None:
    return _ring


def force_disarm() -> None:
    """Clear any armed sink unconditionally (test isolation; ``context._reset``)."""
    global _sink, _ring
    with _lock:
        _sink = None
        _ring = None
    _tls.stack = []


def annotate(**attrs) -> None:
    """Attach *attrs* to the innermost open span on this thread.

    Lets code deep in the call stack (the write pipeline, a kernel block)
    report measurements without threading a span handle through every
    signature.  No-op when disarmed or when no span is open here.
    """
    if _sink is None and _ring is None:
        return
    stack = getattr(_tls, "stack", None)
    if stack:
        stack[-1].attrs.update(attrs)


def annotate_add(key: str, value) -> None:
    """Accumulate *value* into attr *key* of the innermost open span."""
    if _sink is None and _ring is None:
        return
    stack = getattr(_tls, "stack", None)
    if stack:
        attrs = stack[-1].attrs
        attrs[key] = attrs.get(key, 0) + value


def wrap_thunk(thunk, label: str, deferred: bool, provenance: dict | None = None):
    """Instrument *thunk* as an op-body span when a sink is armed.

    *provenance* carries the planner's fusion/CSE rewrite info into the
    span attrs.  With nothing armed the thunk is returned unchanged —
    the zero-overhead fast path.
    """
    sink = current()
    if sink is None:
        return thunk

    fast = getattr(sink, "fast_append", None)
    if fast is not None:
        # ring-only retention: no capture is watching, so skip the full
        # span machinery and retain a raw timing tuple
        def timed_ring():
            t0 = time.perf_counter()
            try:
                thunk()
            finally:
                fast(label, "op", t0, time.perf_counter(), provenance,
                     deferred)

        return timed_ring

    def timed():
        sp = sink.open(label, "op", deferred=deferred)
        if provenance:
            sp.attrs.update(provenance)
        try:
            thunk()
        finally:
            sink.close(sp)

    return timed
