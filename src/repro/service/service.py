"""The in-process multi-tenant graph service.

:class:`Service` fronts the whole stack: sessions own isolated nonblocking
contexts and named graphs, an admission pipeline applies backpressure per
session, and a worker pool drains session queues in planner-batched
sequences.  The design in one paragraph: **a session is a sequence** — the
paper's unit of deferred execution — promoted to a serving primitive.
Admission keeps each sequence bounded, scheduling keeps it serial (one
worker per session at a time, many sessions in parallel), and batching
hands the planner whole queue-fuls so fusion/CSE/parallel scheduling work
across independently submitted requests.

Admission control:

* per-session bounded FIFO queue (``queue_capacity``); a full queue
  rejects immediately with the typed :class:`~repro.service.errors.QueueFull`
  — callers see backpressure, never silent drops or unbounded growth;
* per-request deadlines (absolute, checked when a worker picks the
  request up) fail with :class:`DeadlineExceeded`;
* a draining/stopped service rejects with :class:`ServiceClosed`.

Observability: counters and log-linear latency histograms land in the
process :data:`repro.obs.metrics.registry` (enabled for the service's
lifetime — the "production profile" of the metrics module);
:meth:`Service.stats` derives queue depths, QPS, and p50/p99 latency from
them (within 1/32 of the exact rank value), and any
serving window can be span-captured with :func:`repro.obs.capture` for
Chrome-trace export.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any

from .. import context
from ..obs import diag, metrics
from ..obs.metrics import SLOTracker, percentile
from ..obs.tracing import TraceContext
from .. import parallel
from ..parallel import get_num_threads
from .errors import QueueFull, ServiceClosed, SessionNotFound
from .executor import plain, run_batch, validate_session
from .memo import ResultCache, analyze_request
from .request import Request, new_request
from .session import SHARED_SESSION, Session
from .snapshot import SnapshotStore

__all__ = ["Service", "ServiceConfig"]


@dataclass
class ServiceConfig:
    """Tunables of one :class:`Service` instance."""

    #: worker-pool size; None → ``max(2, repro.parallel.get_num_threads())``
    workers: int | None = None
    #: bound of each session's admission queue
    queue_capacity: int = 64
    #: most requests one batch may drain from a session's queue
    max_batch: int = 32
    #: batch each drained queue through the planner (False → one request
    #: per batch)
    batching: bool = True
    #: default per-request timeout in seconds (None → no deadline)
    default_timeout: float | None = None
    #: start the worker pool in __init__ (tests may start manually)
    autostart: bool = True
    #: rolling-window p99 latency target in milliseconds (None → no SLO)
    slo_p99_ms: float | None = None
    #: kernel execution backend for drained batches
    #: (``serial`` | ``threads`` | ``processes`` — see :mod:`repro.parallel`)
    backend: str = "threads"
    #: kernel suite for drained batches (``interpreter`` | ``codegen`` —
    #: see :mod:`repro.kernels`); codegen compiles eligible fused chains
    kernel_backend: str = "interpreter"
    #: shard-pool size for the ``processes`` backend (None → leave the
    #: process-wide :func:`repro.parallel.shard_workers` setting alone)
    shard_workers: int | None = None
    #: cross-request result cache (memoization of cacheable reads on
    #: shared graphs, keyed by snapshot version + exact request text)
    cache: bool = True
    #: flight-recorder dump directory (None → $REPRO_DIAG_DIR or tmpdir)
    diag_dir: str | None = None

    def worker_count(self) -> int:
        if self.workers:
            return self.workers
        if self.backend == "processes":
            # drain batches fan out across the shard pool; a small service
            # pool is enough to keep it fed (get_num_threads() is pinned to
            # 1 under non-thread backends)
            return 2
        return max(2, get_num_threads())


class Service:
    """Multi-tenant graph service: sessions, admission, batched execution."""

    def __init__(self, config: ServiceConfig | None = None, **overrides):
        if config is None:
            config = ServiceConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a config or keyword overrides")
        self.config = config
        self._mu = threading.Lock()
        self._work = threading.Condition(self._mu)
        self._ready: deque[Session] = deque()
        self._sessions: dict[str, Session] = {}
        self._names = itertools.count(1)
        self._workers: list[threading.Thread] = []
        self._stopping = False
        self._stopped = False
        self._started = False
        self._t0 = time.monotonic()
        # the shared graph store is a sequence of immutable copy-on-write
        # versions: every non-shared request pins the current version at
        # admission; the shared session is the single writer and publishes
        # a new version per mutating request
        self.snapshots = SnapshotStore()
        self.memo: ResultCache | None = (
            ResultCache() if config.cache else None
        )
        # mutations to shared graphs queue through the shared session — the
        # only path that sees (and builds) unpublished working state
        self._shared = Session(SHARED_SESSION, capacity=config.queue_capacity)
        self._sessions[SHARED_SESSION] = self._shared
        self.slo: SLOTracker | None = (
            SLOTracker(config.slo_p99_ms * 1e3)
            if config.slo_p99_ms is not None
            else None
        )
        metrics.registry.enable()
        # the production diagnostics layer: an always-on flight-recorder
        # ring (process-global, so a later Service instance supersedes an
        # earlier one's installation)
        self.diag_recorder = diag.install(dump_dir=config.diag_dir)
        #: the most recent drain's EXPLAIN record (the `explain` wire command)
        self.last_explain: dict | None = None
        parallel.set_backend(config.backend)
        parallel.set_kernel_backend(config.kernel_backend)
        if config.shard_workers is not None:
            parallel.set_shard_workers(config.shard_workers)
        if config.autostart:
            self.start()

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Start the worker pool (idempotent)."""
        with self._mu:
            if self._started:
                return
            self._started = True
            n = self.config.worker_count()
            for i in range(n):
                t = threading.Thread(
                    target=self._worker_loop, name=f"svc-worker-{i}", daemon=True
                )
                self._workers.append(t)
                t.start()

    def shutdown(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the service.

        With ``drain=True`` (graceful) new admissions are rejected while
        already-admitted requests run to completion before the workers
        exit.  With ``drain=False`` still-queued requests fail with
        :class:`ServiceClosed`.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._work:
            if self._stopped:
                return
            self._stopping = True
            if not self._started:
                drain = False  # nothing can drain without a worker pool
            if not drain:
                for sess in self._sessions.values():
                    while sess.pending:
                        req = sess.pending.popleft()
                        req.release_version()
                        if not req.future.done():
                            req.future.set_exception(
                                ServiceClosed("service shut down before execution")
                            )
                if not self._started:
                    self._ready.clear()
                    for sess in self._sessions.values():
                        sess.scheduled = False
            while any(s.pending or s.scheduled for s in self._sessions.values()):
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                self._work.wait(timeout=remaining)
            self._stopped = True
            self._work.notify_all()
        for t in self._workers:
            t.join(timeout=5.0)
        # only tears down if still the installed recorder (a later Service
        # instance's install wins)
        diag.uninstall(self.diag_recorder)

    def __enter__(self) -> "Service":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # ------------------------------------------------------------- sessions
    def open_session(
        self,
        name: str | None = None,
        *,
        mode: context.Mode = context.Mode.NONBLOCKING,
    ) -> str:
        """Create a session; returns its name (generated when omitted)."""
        with self._mu:
            if self._stopping:
                raise ServiceClosed("service is shutting down")
            if name is None:
                name = f"s{next(self._names)}"
                while name in self._sessions:
                    name = f"s{next(self._names)}"
            elif name in self._sessions:
                sess = self._sessions[name]
                if not sess.closed:
                    return name  # reopening an open session is a no-op
                raise SessionNotFound(f"session {name!r} was closed")
            self._sessions[name] = Session(
                name, capacity=self.config.queue_capacity, mode=mode
            )
            return name

    def close_session(self, name: str) -> None:
        """Stop admitting to *name*; queued work still completes."""
        with self._work:
            sess = self._sessions.get(name)
            if sess is None or sess.closed:
                raise SessionNotFound(f"no open session {name!r}")
            if sess.is_shared:
                raise SessionNotFound("the shared session cannot be closed")
            sess.closed = True
            while sess.pending or sess.scheduled:
                self._work.wait()

    def _session(self, name: str) -> Session:
        sess = self._sessions.get(name)
        if sess is None or sess.closed:
            raise SessionNotFound(f"no open session {name!r}")
        return sess

    @property
    def shared_session(self) -> Session:
        return self._shared

    # ------------------------------------------------------------ admission
    def submit(
        self,
        session: str,
        kind: str,
        payload: dict | None = None,
        *,
        timeout: float | None = None,
        trace: TraceContext | None = None,
        timing: bool = False,
        explain: bool = False,
    ) -> Future:
        """Admit one request; returns its :class:`Future`.

        Raises :class:`QueueFull` / :class:`ServiceClosed` /
        :class:`SessionNotFound` *synchronously* — admission errors never
        travel through the future.  *trace* carries a client-minted
        :class:`TraceContext` (one is minted at admission otherwise);
        *timing* opts the response into the per-request latency
        decomposition; *explain* attaches the drain-time planner's
        EXPLAIN record for this request (Descriptor-style opt-in).

        The future resolves to the reply as plain Python data — fetched
        contents as lists of scalars — which the caller owns.
        """
        raw = self._admit(
            session, kind, payload, timeout=timeout, trace=trace,
            timing=timing, explain=explain,
        )
        fut: Future = Future()

        def _resolve(done: Future) -> None:
            if not fut.set_running_or_notify_cancel():
                return
            exc = done.exception()
            if exc is not None:
                fut.set_exception(exc)
            else:
                fut.set_result(plain(done.result()))

        raw.add_done_callback(_resolve)
        return fut

    def _admit(
        self,
        session: str,
        kind: str,
        payload: dict | None = None,
        *,
        timeout: float | None = None,
        trace: TraceContext | None = None,
        timing: bool = False,
        explain: bool = False,
    ) -> Future:
        """:meth:`submit`, but the future resolves to the raw reply: its
        fetched contents stay read-only numpy arrays, which may be shared
        with a memo entry.  The TCP front-end encodes them as frames."""
        req = new_request(
            session, kind, payload,
            timeout=self.config.default_timeout if timeout is None else timeout,
            trace=trace, timing=timing, explain=explain,
        )
        if self.memo is not None:
            # pure in (kind, payload): key it on the submitting thread,
            # outside the admission lock, so the worker's issue loop only
            # pays for the lookup
            req.memo_decision = analyze_request(req.kind, req.payload)
        reg = metrics.registry
        with self._work:
            if self._stopping or self._stopped:
                reg.inc("service.rejected.closed")
                raise ServiceClosed("service is shutting down")
            sess = self._session(session)
            if len(sess.pending) >= sess.capacity:
                reg.inc("service.rejected.queue_full")
                raise QueueFull(
                    f"session {session!r} queue is full "
                    f"({sess.capacity} pending)"
                )
            reg.inc("service.admitted")
            sess.admitted += 1
            if not sess.is_shared:
                # the read path: pin the current shared-store version now so
                # the request sees one frozen publication regardless of any
                # writer publishing between admission and execution
                req.pin_version(self.snapshots)
            sess.pending.append(req)
            if not sess.scheduled:
                sess.scheduled = True
                self._ready.append(sess)
                self._work.notify()
        return req.future

    def request(
        self,
        session: str,
        kind: str,
        payload: dict | None = None,
        *,
        timeout: float | None = None,
        wait_timeout: float | None = 60.0,
        trace: TraceContext | None = None,
        timing: bool = False,
        explain: bool = False,
    ) -> dict:
        """Submit and wait: the synchronous convenience the Client uses."""
        fut = self._admit(
            session, kind, payload, timeout=timeout, trace=trace,
            timing=timing, explain=explain,
        )
        return plain(fut.result(timeout=wait_timeout))

    # -------------------------------------------------------------- workers
    def _worker_loop(self) -> None:
        while True:
            with self._work:
                while not self._ready and not self._stopped:
                    self._work.wait()
                if self._stopped and not self._ready:
                    return
                sess = self._ready.popleft()
                limit = self.config.max_batch if self.config.batching else 1
                batch = []
                while sess.pending and len(batch) < limit:
                    batch.append(sess.pending.popleft())
            try:
                if batch:
                    run_batch(self, sess, batch)
            except BaseException as exc:  # executor bug: fail, don't kill worker
                for req in batch:
                    req.release_version()
                    if not req.future.done():
                        req.future.set_exception(
                            ServiceClosed(f"internal executor failure: {exc!r}")
                        )
            finally:
                with self._work:
                    if sess.pending:
                        self._ready.append(sess)
                        self._work.notify()
                    else:
                        sess.scheduled = False
                    # wake shutdown/close_session drain waiters
                    self._work.notify_all()

    # ---------------------------------------------------------------- intro
    def stats(self) -> dict:
        """Service-level view: queues, totals, QPS, latency percentiles."""
        snap = metrics.registry.snapshot()
        counters = snap["counters"]
        hists = snap["histograms"]
        lat = hists.get("service.latency_us")
        uptime = time.monotonic() - self._t0
        completed = counters.get("service.completed", 0)
        with self._mu:
            sessions = {
                name: {
                    "depth": s.depth(),
                    "admitted": s.admitted,
                    "completed": s.completed,
                    "failed": s.failed,
                    "objects": len(s.objects),
                    "closed": s.closed,
                }
                for name, s in self._sessions.items()
            }
        return {
            "uptime_s": uptime,
            "workers": len(self._workers),
            "batching": self.config.batching,
            "queue_capacity": self.config.queue_capacity,
            "sessions": sessions,
            "queue_depth": sum(s["depth"] for s in sessions.values()),
            "admitted": counters.get("service.admitted", 0),
            "completed": completed,
            "failed": counters.get("service.failed", 0),
            "rejected_queue_full": counters.get("service.rejected.queue_full", 0),
            "rejected_closed": counters.get("service.rejected.closed", 0),
            "deadline_exceeded": counters.get("service.deadline_exceeded", 0),
            "batches": counters.get("service.batches", 0),
            "qps": (completed / uptime) if uptime > 0 else 0.0,
            "latency_p50_us": percentile(lat, 0.50) if lat else None,
            "latency_p99_us": percentile(lat, 0.99) if lat else None,
            "breakdown": {
                stage: {
                    "p50_us": percentile(h, 0.50) if h else None,
                    "p99_us": percentile(h, 0.99) if h else None,
                    "count": h["count"] if h else 0,
                }
                for stage, h in (
                    ("queue_wait", hists.get("service.queue_wait_us")),
                    ("issue", hists.get("service.issue_us")),
                    ("drain", hists.get("service.drain_us")),
                    ("drain_share", hists.get("service.drain_share_us")),
                )
            },
            "slo": self.slo.summary() if self.slo is not None else None,
            "snapshots": self.snapshots.stats(),
            "cache": self.memo.stats() if self.memo is not None else None,
            "diag": self.diag_stats(),
        }

    def diag_stats(self) -> dict:
        """Flight-recorder view."""
        rec = self.diag_recorder
        return {
            "dump_dir": rec.dump_dir,
            "dumps": len(rec.dumps),
            "ring_spans": len(rec.ring.ring),
        }

    def health(self) -> dict:
        """Liveness/readiness: cheap enough for a probe loop."""
        with self._mu:
            depth = sum(
                len(s.pending) for s in self._sessions.values()
            )
            sessions = sum(
                1 for s in self._sessions.values() if not s.closed
            )
            status = (
                "stopping" if self._stopping or self._stopped
                else "ok" if self._started
                else "idle"
            )
        out = {
            "status": status,
            "uptime_s": time.monotonic() - self._t0,
            "workers": len(self._workers),
            "sessions": sessions,
            "queue_depth": depth,
        }
        if self.slo is not None:
            s = self.slo.summary()
            out["slo_met"] = s["window_met"]
            out["slo_burn_rate"] = s["burn_rate"]
        return out

    def metrics_snapshot(self) -> dict:
        """Raw counter/histogram snapshot of the process registry."""
        return metrics.registry.snapshot()

    def validate_all(self) -> int:
        """``check_all`` every session's objects; returns objects checked."""
        with self._mu:
            sessions = [s for s in self._sessions.values()]
        n = 0
        for sess in sessions:
            validate_session(sess)
            n += len(sess.objects)
        return n
