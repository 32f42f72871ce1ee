"""repro.obs — the observability subsystem.

Section IV of the paper keeps blocking mode in the spec because "an
external tool needs to evaluate the state of memory during a sequence";
this package is that tool, generalized: structured spans from every
execution path (eager blocking ops, drained-queue ops, planner-fused
nodes, kernel invocations, thread-pool blocks), a process-wide
:mod:`metrics <repro.obs.metrics>` registry, and :mod:`exporters
<repro.obs.export>` — Chrome ``chrome://tracing`` JSON and flat per-label
reports.

Typical use::

    import repro as grb
    from repro import obs

    with obs.capture() as cap:
        grb.mxm(C, None, None, grb.PLUS_TIMES[grb.INT64], A, B)
        grb.wait()
    print(cap.report())              # per-label: time, flops, provenance
    cap.export_chrome("trace.json")  # load in chrome://tracing / Perfetto

Cost: with no capture armed and metrics disabled, the instrumented paths
do a single global read and nothing else (``spans.wrap_thunk`` returns the
raw thunk unchanged, kernels skip all measurement).
"""

from __future__ import annotations

from . import export, metrics, spans, tracing
from .export import (
    chrome_trace,
    per_label_report,
    prometheus_text,
    timeline_html,
)
from .metrics import MetricsRegistry, SLOTracker, registry
from .spans import Span, SpanSink, annotate, annotate_add
from .tracing import TraceContext

__all__ = [
    "Capture",
    "capture",
    "active",
    "Span",
    "SpanSink",
    "MetricsRegistry",
    "SLOTracker",
    "registry",
    "chrome_trace",
    "per_label_report",
    "prometheus_text",
    "timeline_html",
    "TraceContext",
    "annotate",
    "annotate_add",
    "spans",
    "metrics",
    "export",
    "tracing",
]


def active() -> bool:
    """Is any measurement consumer live (span capture or metrics)?"""
    return spans.current() is not None or metrics.registry.enabled


class Capture:
    """The result object of one :func:`capture` window."""

    def __init__(self):
        self._sink = SpanSink()
        self._queue_before: dict = {}
        self._queue_after: dict = {}
        self._metrics_before: dict = {"counters": {}, "histograms": {}}
        self._metrics_after: dict = {"counters": {}, "histograms": {}}
        self._pool_before: dict = {}
        self._pool_after: dict = {}

    # ------------------------------------------------------------- spans
    @property
    def spans(self) -> list[Span]:
        return self._sink.spans

    def spans_of(self, kind: str) -> list[Span]:
        return [sp for sp in self._sink.spans if sp.kind == kind]

    # ----------------------------------------------------------- metrics
    @property
    def counters(self) -> dict:
        """Counter deltas over the capture window."""
        return MetricsRegistry.delta(
            self._metrics_before, self._metrics_after
        )["counters"]

    @property
    def histograms(self) -> dict:
        return MetricsRegistry.delta(
            self._metrics_before, self._metrics_after
        )["histograms"]

    def queue_delta(self) -> dict:
        """Deferred-queue counter deltas (drains, elided, fused, CSE, ...)."""
        out = {}
        for k, v in self._queue_after.items():
            if k == "max_width":  # high-water mark, not a running count
                out[k] = v
            else:
                out[k] = v - self._queue_before.get(k, 0)
        return out

    def pool_delta(self) -> dict:
        """Thread-pool utilization deltas over the window."""
        out = {}
        for k, v in self._pool_after.items():
            if k == "workers":
                out[k] = v
            else:
                out[k] = v - self._pool_before.get(k, 0)
        return out

    # ----------------------------------------------------------- exports
    def chrome_trace(self) -> dict:
        return chrome_trace(self.spans)

    def export_chrome(self, path) -> dict:
        """Write the Chrome trace-event JSON to *path* and return it."""
        import json

        doc = self.chrome_trace()
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")
        return doc

    def timeline_html(self, **kw) -> str:
        return timeline_html(self.spans, **kw)

    def export_timeline(self, path, **kw) -> None:
        """Write the per-request timeline / flamegraph HTML to *path*."""
        with open(path, "w") as fh:
            fh.write(self.timeline_html(**kw))

    def report(self) -> str:
        return per_label_report(
            self.spans,
            queue_delta=self.queue_delta(),
            counters=self.counters,
            pool_delta=self.pool_delta(),
        )


class capture:
    """Context manager arming span collection + metrics for one window.

    One capture at a time (``InvalidValue`` otherwise).  Arming is
    exception-safe: if reading the baseline counters fails, the global sink
    is disarmed before the error propagates, so a later capture still works.
    """

    def __init__(self):
        self._capture = Capture()
        self._prev_metrics = False

    def __enter__(self) -> Capture:
        cap = self._capture
        spans.arm(cap._sink)
        try:
            from .. import context
            from ..parallel import pool_stats

            cap._queue_before = context.queue_stats()
            cap._pool_before = pool_stats()
            self._prev_metrics = metrics.registry.enabled
            metrics.registry.enable()
            cap._metrics_before = metrics.registry.snapshot()
        except BaseException:
            # never leak the armed sink: every later capture would fail
            # with "already active"
            spans.disarm(cap._sink)
            metrics.registry._enabled = self._prev_metrics
            raise
        return cap

    def __exit__(self, *exc) -> None:
        cap = self._capture
        try:
            from .. import context
            from ..parallel import pool_stats

            cap._metrics_after = metrics.registry.snapshot()
            cap._queue_after = context.queue_stats()
            cap._pool_after = pool_stats()
        finally:
            if not self._prev_metrics:
                metrics.registry.disable()
            spans.disarm(cap._sink)
