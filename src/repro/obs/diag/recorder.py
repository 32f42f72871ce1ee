"""The flight recorder: a bounded, lock-light ring of recent spans with
automatic dump-to-disk when something goes wrong.

Full captures (:func:`repro.obs.capture`) are opt-in windows — by the time
an SLO breach or a worker Panic surfaces in production, the spans that
explain it are long gone.  The recorder closes that gap: a
:class:`RingSink` stays armed as the process's fallback span sink
(:func:`repro.obs.spans.arm_ring`), so every span the hot paths already
emit lands in a fixed-size ``deque`` whether or not anyone is watching.
``deque.append`` with a ``maxlen`` is a single GIL-atomic operation, so
the armed-ring fast path adds no lock to span close.

Shard workers keep their own rings (they are separate processes) and ship
recent task spans back piggybacked on Result messages; the parent's
recorder stitches them — mapped through each worker's handshake clock
offset — into one causally-ordered Chrome-trace dump.  Because spans are
shipped as they complete, a SIGKILLed worker's history up to its last
completed task survives in the parent.

Dumps are triggered by worker Panic, SLO error-budget exhaustion, request
deadline misses, or an explicit ``dump`` wire command; automatic triggers
are rate-limited so a failure storm produces a few dumps, not a disk full
of them.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from collections import deque

from .. import metrics
from .. import spans as _spans
from ..export import chrome_trace
from ..spans import Span, SpanSink

__all__ = ["RingSink", "FlightRecorder", "DEFAULT_CAPACITY", "DEFAULT_HORIZON_S"]

DEFAULT_CAPACITY = 4096
DEFAULT_HORIZON_S = 30.0


class RingSink(SpanSink):
    """A span sink that retains only the newest *capacity* spans.

    ``close`` replaces the base class's locked list append with a bounded
    ``deque.append`` — atomic under the GIL, so the always-on recorder
    costs one method call and one deque append per span, never a lock.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        super().__init__()
        self.ring: deque[Span] = deque(maxlen=capacity)

    def close(self, sp: Span) -> None:
        sp.t1 = time.perf_counter()
        stack = _spans._stack()
        if stack and stack[-1] is sp:
            stack.pop()
        elif sp in stack:
            stack.remove(sp)
        self.ring.append(sp)

    def record(self, sp: Span) -> None:
        self.ring.append(sp)

    def fast_append(
        self, label: str, kind: str, t0: float, t1: float,
        attrs: dict | None = None, deferred: bool = True,
    ) -> None:
        """Retention without Span construction — the ring-only hot path.

        When no capture is armed, per-op/per-kernel emitters skip the
        full ``open``/``close`` machinery (thread lookup, stack
        parenting, dataclass init) and append one raw tuple; spans are
        materialized lazily in :meth:`snapshot`, i.e. only when a dump
        actually happens.  This is what keeps always-on retention inside
        the disabled-overhead budget.
        """
        self.ring.append((label, kind, t0, t1, attrs, deferred))

    def snapshot(self) -> list[Span]:
        """A point-in-time copy of the ring, oldest first (raw tuples from
        the fast path materialized as spans)."""
        out: list[Span] = []
        for item in list(self.ring):
            if type(item) is tuple:
                label, kind, t0, t1, attrs, deferred = item
                item = Span(
                    sid=next(self._ids),
                    parent=None,
                    label=label,
                    kind=kind,
                    t0=t0,
                    t1=t1,
                    thread="ring",
                    tid=0,
                    deferred=deferred,
                    attrs=dict(attrs) if attrs else {},
                )
            out.append(item)
        return out


class FlightRecorder:
    """Owns the ring, the stitched shard-worker spans, and the dump path.

    One recorder is normally installed process-wide through
    :func:`repro.obs.diag.install`; the service does this on startup.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        horizon_s: float = DEFAULT_HORIZON_S,
        dump_dir: str | None = None,
        min_dump_interval_s: float = 5.0,
    ):
        self.ring = RingSink(capacity)
        self.horizon_s = float(horizon_s)
        self.dump_dir = (
            dump_dir
            or os.environ.get("REPRO_DIAG_DIR")
            or os.path.join(tempfile.gettempdir(), "repro-diag")
        )
        self.min_dump_interval_s = float(min_dump_interval_s)
        self._mu = threading.Lock()
        self._seq = 0
        self._last_dump = -float("inf")
        #: stitched shard-worker spans, already mapped into parent time
        self._worker_spans: deque[Span] = deque(maxlen=capacity)
        #: paths of every dump written by this recorder
        self.dumps: list[str] = []

    # -------------------------------------------------------------- arming
    def install(self) -> None:
        _spans.arm_ring(self.ring)

    def uninstall(self) -> None:
        _spans.disarm_ring(self.ring)

    # ------------------------------------------------------- worker stitch
    def note_worker_spans(
        self, worker_id: int, pid: int, clock_offset: float, entries
    ) -> None:
        """Absorb span tuples shipped from a shard worker.

        *entries* are ``(label, kind, t0, t1, attrs)`` tuples in the
        worker's own ``perf_counter`` clock; *clock_offset* (parent time
        minus worker time, measured at the Hello handshake) maps them onto
        the parent's axis so the stitched dump is causally ordered.
        """
        for label, kind, t0, t1, attrs in entries:
            a = dict(attrs) if attrs else {}
            a.setdefault("worker_pid", pid)
            a["stitched"] = True
            self._worker_spans.append(
                Span(
                    sid=0,
                    parent=None,
                    label=str(label),
                    kind=str(kind),
                    t0=float(t0) + clock_offset,
                    t1=float(t1) + clock_offset,
                    thread=f"shard-worker-{worker_id}",
                    tid=1_000_000 + int(worker_id),
                    deferred=True,
                    attrs=a,
                )
            )

    # --------------------------------------------------------------- dumps
    def snapshot(self) -> list[Span]:
        """Everything retained and inside the horizon, causally ordered."""
        horizon = time.perf_counter() - self.horizon_s
        keep = [sp for sp in self.ring.snapshot() if sp.t1 >= horizon]
        keep += [sp for sp in list(self._worker_spans) if sp.t1 >= horizon]
        keep.sort(key=lambda sp: (sp.t0, sp.t1))
        return keep

    def dump(self, reason: str, detail=None, *, force: bool = False) -> str | None:
        """Write the current ring as a Chrome-trace JSON file.

        Returns the path, or None when a recent automatic dump already
        covered this window (*force* — the explicit wire command —
        bypasses the rate limit).
        """
        now = time.monotonic()
        reg = metrics.registry
        with self._mu:
            if not force and now - self._last_dump < self.min_dump_interval_s:
                reg.inc("obs.diag.dump.suppressed")
                return None
            self._last_dump = now
            self._seq += 1
            seq = self._seq
        retained = self.snapshot()
        doc = chrome_trace(retained)
        doc["otherData"].update(
            {
                "reason": reason,
                "detail": detail,
                "horizon_s": self.horizon_s,
                "wall_time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            }
        )
        safe = "".join(c if (c.isalnum() or c in "-_") else "-" for c in reason)
        os.makedirs(self.dump_dir, exist_ok=True)
        path = os.path.join(self.dump_dir, f"flight-{safe}-{seq:04d}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")
        os.replace(tmp, path)  # a reader never sees a half-written dump
        reg.inc("obs.diag.dump")
        reg.inc(f"obs.diag.dump.{safe}")
        self.dumps.append(path)
        return path
