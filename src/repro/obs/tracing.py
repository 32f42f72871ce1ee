"""Request-scoped tracing: the provenance channel from a service request
down to the kernels that eventually run on its behalf.

The nonblocking execution model makes work invisible by design — a call
returns before anything executes, and the service's batched drains fuse
deferred work from many requests into one planner pass.  This module
restores attribution without constraining the planner:

* a :class:`TraceContext` (trace id + request id) is minted at the client
  or admission edge and rides on the :class:`~repro.service.request.Request`;
* while a request *issues*, :func:`use` makes its trace the thread's
  current one, so :func:`repro.context.submit` stamps it onto every
  :class:`~repro.execution.sequence.DeferredOp` the request enqueues;
* at drain time the planner unions the stamps of each scheduled node's
  member ops into span provenance (``request_ids`` / ``trace_ids``) — a
  fused pair spanning two requests carries *both* ids, and a CSE source
  whose cached result feeds another request's duplicate carries the
  duplicate's id too (provenance merge, not loss);
* a :class:`DrainAccounting` installed around a batch drain receives each
  node's wall time and realized flops keyed by request id, so the
  executor can apportion the shared drain back to the requests that
  caused it (``drain_share``).

Everything here is thread-local reads when idle: with no trace installed
and no accounting armed, the stamp is ``None`` and the tally is a no-op.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "TraceContext",
    "mint_trace_id",
    "use",
    "current_trace",
    "DrainAccounting",
    "accounting",
    "current_accounting",
    "tally_flops",
]

_tls = threading.local()


def mint_trace_id() -> str:
    """A fresh 16-hex-digit trace id."""
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True, slots=True)
class TraceContext:
    """Identity of one request as it flows through queues and drains.

    ``trace_id`` groups everything one client interaction caused (it is
    minted once at the outermost edge and propagated); ``request_id``
    names the single request.  Both are plain strings so they survive the
    JSON-lines wire unchanged.
    """

    trace_id: str
    request_id: str

    @classmethod
    def mint(cls, request_id: str | None = None) -> "TraceContext":
        tid = mint_trace_id()
        return cls(trace_id=tid, request_id=request_id or f"r-{tid[:8]}")

    @classmethod
    def from_wire(cls, doc) -> "TraceContext | None":
        """Rebuild from a wire ``trace`` object; None on malformed input
        (tracing is best-effort — a bad trace never fails the request)."""
        if not isinstance(doc, dict):
            return None
        tid, rid = doc.get("trace_id"), doc.get("request_id")
        if not isinstance(tid, str) or not isinstance(rid, str):
            return None
        return cls(trace_id=tid, request_id=rid)

    def to_wire(self) -> dict:
        return {"trace_id": self.trace_id, "request_id": self.request_id}


class use:
    """Make *trace* the current request trace on this thread.

    The executor wraps each request's issue phase in one of these; every
    deferred op enqueued inside picks up the stamp.  Nests (a per-thread
    stack), and ``use(None)`` is a valid no-stamp window.
    """

    __slots__ = ("_trace",)

    def __init__(self, trace: TraceContext | None):
        self._trace = trace

    def __enter__(self) -> TraceContext | None:
        stack = getattr(_tls, "trace_stack", None)
        if stack is None:
            stack = _tls.trace_stack = []
        stack.append(self._trace)
        return self._trace

    def __exit__(self, *exc) -> None:
        stack = getattr(_tls, "trace_stack", None)
        if stack:
            stack.pop()


def current_trace() -> TraceContext | None:
    """The trace deferred ops enqueued on this thread are stamped with."""
    stack = getattr(_tls, "trace_stack", None)
    return stack[-1] if stack else None


# --------------------------------------------------------------------------
# Drain accounting: apportioning a shared drain back to its requests
# --------------------------------------------------------------------------

class DrainAccounting:
    """Per-request work tally of one drain (thread-safe).

    The planner driver wraps every scheduled node's runner so its wall
    time and realized flops land here keyed by request id; nodes serving
    several requests (fused across requests, CSE shared) split their
    weight evenly among them.  :meth:`shares` then apportions a measured
    drain wall-clock by realized flops — falling back to node wall time
    when the drained work reported no flops (pure writes, tiny kernels).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.seconds: dict[str, float] = {}
        self.flops: dict[str, float] = {}
        self.nodes = 0

    def note(self, request_ids: Iterable[str], seconds: float, flops: int) -> None:
        rids = list(request_ids)
        with self._lock:
            self.nodes += 1
            if not rids:
                return
            w = 1.0 / len(rids)
            for rid in rids:
                self.seconds[rid] = self.seconds.get(rid, 0.0) + seconds * w
                self.flops[rid] = self.flops.get(rid, 0.0) + flops * w

    def wrap(self, runner, request_ids: Iterable[str]):
        """Time *runner* and tally its realized flops under *request_ids*."""
        rids = tuple(request_ids)

        def accounted():
            token = _tally_begin()
            t0 = time.perf_counter()
            try:
                runner()
            finally:
                self.note(rids, time.perf_counter() - t0, _tally_end(token))

        return accounted

    def shares(self, wall_seconds: float) -> dict[str, float]:
        """Apportion *wall_seconds* of drain time across the tallied
        request ids; the shares sum to *wall_seconds* exactly (or to the
        empty dict when the drain ran nothing attributable)."""
        with self._lock:
            weights = dict(self.flops) if sum(self.flops.values()) > 0 else dict(self.seconds)
        total = sum(weights.values())
        if total <= 0:
            # attributable requests with zero measurable weight: split evenly
            if not weights:
                return {}
            even = wall_seconds / len(weights)
            return {rid: even for rid in weights}
        return {rid: wall_seconds * w / total for rid, w in weights.items()}


class accounting:
    """Install *acc* as this thread's drain accounting for the ``with``
    body; the planner driver binds it into every node runner it attaches
    while installed (closures, so pool threads report back correctly)."""

    __slots__ = ("_acc",)

    def __init__(self, acc: DrainAccounting):
        self._acc = acc

    def __enter__(self) -> DrainAccounting:
        stack = getattr(_tls, "acct_stack", None)
        if stack is None:
            stack = _tls.acct_stack = []
        stack.append(self._acc)
        return self._acc

    def __exit__(self, *exc) -> None:
        stack = getattr(_tls, "acct_stack", None)
        if stack:
            stack.pop()


def current_accounting() -> DrainAccounting | None:
    stack = getattr(_tls, "acct_stack", None)
    return stack[-1] if stack else None


# --------------------------------------------------------------------------
# Realized-flop tally: kernels report, node wrappers collect
# --------------------------------------------------------------------------

def _tally_begin() -> list:
    # cell = [count, previous-cell]; the previous cell is restored on end
    cell = [0, getattr(_tls, "tally", None)]
    _tls.tally = cell
    return cell


def _tally_end(cell: list) -> int:
    _tls.tally = cell[1]
    if cell[1] is not None:
        # nested tallies (an accounting wrap whose body runs another
        # accounted op) must not swallow the inner count from the outer
        cell[1][0] += cell[0]
    return cell[0]


def tally_flops(n: int) -> None:
    """Credit *n* realized flops to the innermost open tally (no-op when
    no drain accounting is collecting on this thread)."""
    cell = getattr(_tls, "tally", None)
    if cell is not None:
        cell[0] += n
