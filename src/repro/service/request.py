"""The request model: what clients may ask the service to do.

A request is plain data — a *kind* plus a JSON-able payload — so the same
model serves the in-process :class:`~repro.service.client.Client` and the
JSON-lines TCP front-end without translation.  Programs reuse the fuzzer's
declarative :class:`~repro.fuzz.program.Call` representation verbatim: a
client-submitted program is exactly a fuzz program body executed against
the session's named objects, which keeps the served operation surface and
the conformance-tested surface one and the same.

Data kinds (queued per session, executed by the worker pool):

=============  ==============================================================
``define``     create a named Matrix/Vector from a declarative payload
               (``kind``/``dtype``/``shape``/``entries``)
``upload``     create a named object from a serialized blob (``blob``)
``download``   serialize a named object (result carries ``blob`` bytes)
``program``    run a sequence of Table II calls (``calls``; optional
               ``declare`` for new outputs, ``fetch`` to return contents)
``algorithm``  run a registered graph algorithm (``algo``, ``graph``,
               optional ``args`` and ``store_as``)
``update``     graph mutation: ``set`` / ``remove`` entry lists of a Matrix
               or a Vector, buffered through :class:`repro.stream.EdgeBuffer`
               and merged as one deferred planner op; replies ``nvals``
``stream_mutate``  the same mutation of a Matrix; replies the accepted
               counts without reading the graph
``query``      read ``nvals`` / ``tuples`` / ``element`` of a named object
``free``       drop a named object
=============  ==============================================================

The data kinds are the keys of :data:`repro.service.executor.KINDS`,
which also holds each kind's handler and whether it mutates the store.

Admin kinds (``open_session``, ``close_session``, ``metrics``, ``stats``,
``health``, ``validate``, ``ping``) are executed synchronously by the
service, outside the admission pipeline.

Every admitted request carries a :class:`~repro.obs.tracing.TraceContext`
— minted at admission when the client did not supply one — and an opt-in
``timing`` flag; when set, the response gains a ``timing`` dict with the
request's queue-wait / issue / drain-share latency decomposition.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any

from ..obs.tracing import TraceContext
from .errors import BadRequest
from .executor import KINDS

__all__ = ["Request", "DATA_KINDS", "ADMIN_KINDS", "new_request"]

DATA_KINDS = frozenset(KINDS)
ADMIN_KINDS = frozenset(
    ("open_session", "close_session", "metrics", "stats", "health",
     "validate", "ping", "dump", "explain")
)

_ids = itertools.count(1)
_ids_lock = threading.Lock()


@dataclass
class Request:
    """One admitted unit of work, tracked from submission to completion."""

    rid: int
    session: str
    kind: str
    payload: dict
    #: absolute ``time.monotonic`` deadline, or None
    deadline: float | None
    future: Future = field(default_factory=Future)
    #: submission instant (monotonic) — latency is measured from here
    t_submit: float = 0.0
    #: instant a worker began executing the batch containing this request
    t_start: float = 0.0
    #: request identity for span provenance and drain accounting
    trace: TraceContext | None = None
    #: include the latency decomposition in the response dict
    timing: bool = False
    #: include the drain-time planner's EXPLAIN record in the response
    explain: bool = False
    #: shared-store :class:`~repro.service.snapshot.GraphVersion` pinned at
    #: admission (None for shared-session requests, which see live state)
    version: Any = None
    #: :class:`~repro.service.memo.CacheDecision` precomputed at admission —
    #: analysis is pure in ``(kind, payload)``, so the submitting thread does
    #: it instead of the worker's serialized issue loop
    memo_decision: Any = None
    #: the store that pinned ``version`` (unpin goes back to it)
    _snapshots: Any = None

    def expired(self, now: float | None = None) -> bool:
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) > self.deadline

    def pin_version(self, snapshots) -> None:
        """Pin the current shared-store version to this request."""
        self.version = snapshots.pin()
        self._snapshots = snapshots

    def release_version(self) -> None:
        """Unpin the admitted version (idempotent — every completion path
        calls this, including failure and shutdown paths)."""
        if self.version is not None and self._snapshots is not None:
            self._snapshots.unpin(self.version)
            self.version = None
            self._snapshots = None


def new_request(
    session: str,
    kind: str,
    payload: dict | None = None,
    *,
    timeout: float | None = None,
    trace: TraceContext | None = None,
    timing: bool = False,
    explain: bool = False,
) -> Request:
    """Build a :class:`Request`, validating the kind eagerly.

    *timeout* is a relative per-request deadline in seconds; admission and
    execution both honour it.  *trace* propagates a client-minted
    :class:`TraceContext`; when absent one is minted here so every admitted
    request is attributable.
    """
    if kind not in DATA_KINDS:
        raise BadRequest(
            f"unknown request kind {kind!r} (data kinds: {sorted(DATA_KINDS)})"
        )
    payload = dict(payload or {})
    now = time.monotonic()
    with _ids_lock:
        rid = next(_ids)
    if trace is None:
        trace = TraceContext.mint(request_id=f"r{rid}")
    return Request(
        rid=rid,
        session=session,
        kind=kind,
        payload=payload,
        deadline=None if timeout is None else now + timeout,
        t_submit=now,
        trace=trace,
        timing=timing,
        explain=explain,
    )
