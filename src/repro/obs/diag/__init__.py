"""``repro.obs.diag`` — production diagnostics over the spans/metrics layer.

Two pieces (see the sibling modules):

* :mod:`~repro.obs.diag.recorder` — the flight recorder: an always-on
  bounded ring of recent spans, dumped to Chrome-trace JSON on Panic,
  SLO budget exhaustion, deadline misses, or request;
* :mod:`~repro.obs.diag.explain` — plan EXPLAIN: what the drain-time
  planner decided, per node and per request.

This module owns the process-wide installation: :func:`install` arms one
:class:`FlightRecorder` for the whole process, and the free functions
(:func:`trigger_dump`, :func:`note_worker_spans`) are safe no-ops when
nothing is installed — deep layers (the shard pool, the executor) call
them unconditionally without importing service machinery.
"""

from __future__ import annotations

import threading

from .explain import ExplainCollector, collect, current_explain, render_text
from .recorder import FlightRecorder, RingSink

__all__ = [
    "FlightRecorder",
    "RingSink",
    "ExplainCollector",
    "collect",
    "current_explain",
    "render_text",
    "install",
    "uninstall",
    "installed",
    "recorder",
    "trigger_dump",
    "note_worker_spans",
]

_mu = threading.Lock()
_recorder: FlightRecorder | None = None


def install(**recorder_kwargs) -> FlightRecorder:
    """Install (replacing any previous) the process-wide recorder.

    Keyword arguments construct the :class:`FlightRecorder` (``dump_dir=``,
    ``capacity=``, ``horizon_s=``, ...).
    """
    global _recorder
    with _mu:
        if _recorder is not None:
            _recorder.uninstall()
        _recorder = FlightRecorder(**recorder_kwargs)
        _recorder.install()
        return _recorder


def uninstall(recorder: FlightRecorder | None = None) -> None:
    """Tear down the installed recorder; with *recorder* given, only if it
    is still the installed one (a later :func:`install` wins)."""
    global _recorder
    with _mu:
        if recorder is not None and recorder is not _recorder:
            return
        if _recorder is not None:
            _recorder.uninstall()
        _recorder = None


def installed() -> bool:
    return _recorder is not None


def recorder() -> FlightRecorder | None:
    return _recorder


def trigger_dump(reason: str, detail=None, *, force: bool = False) -> str | None:
    """Dump the flight recorder now; None when none installed (or the
    automatic rate limit suppressed this one)."""
    rec = _recorder
    if rec is None:
        return None
    return rec.dump(reason, detail, force=force)


def note_worker_spans(worker_id: int, pid: int, clock_offset: float, entries) -> None:
    """Stitch shard-worker span tuples into the recorder (no-op uninstalled)."""
    rec = _recorder
    if rec is not None and entries:
        rec.note_worker_spans(worker_id, pid, clock_offset, entries)
