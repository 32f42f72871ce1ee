"""Exporters: Chrome trace-event JSON, flat per-label reports, Prometheus
text exposition, and the per-request timeline HTML.

* :func:`chrome_trace` renders a span list into the Trace Event Format
  that ``chrome://tracing`` / Perfetto load: one complete ("X") event per
  span with its attrs in ``args``, plus process/thread-name metadata
  events so service workers and pool threads show up labelled, not as
  bare TIDs.
* :func:`per_label_report` is the human-readable table: per-label counts
  and totals, estimated vs realized flops, nnz written, and the planner's
  fusion/CSE provenance.
* :func:`prometheus_text` renders a metrics snapshot as the Prometheus
  text exposition format (counters → ``_total``, histograms → cumulative
  ``_bucket``/``_sum``/``_count``) — the body of the server's plaintext
  ``metrics`` command.
* :func:`timeline_html` renders a span capture as a self-contained HTML
  report: one lane per request (queue/issue bars plus every drain-time
  op attributed to it, fused and CSE'd included) and a per-thread
  flamegraph of the raw spans.  No external assets — CI uploads it as an
  artifact that opens anywhere.
"""

from __future__ import annotations

import html as _html
from math import ldexp
from typing import Iterable

from .metrics import SUB_BUCKETS, ZERO_BUCKET
from .spans import Span

__all__ = [
    "chrome_trace",
    "per_label_report",
    "prometheus_text",
    "timeline_html",
]


def _jsonable(v):
    """Coerce numpy scalars / odd attr values into JSON-safe types."""
    item = getattr(v, "item", None)
    if callable(item):
        try:
            return item()
        except Exception:  # zero-d arrays of odd dtypes etc.
            return repr(v)
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    return repr(v)


def chrome_trace(spans: Iterable[Span], *, pid: int = 1) -> dict:
    """Render *spans* as a ``chrome://tracing`` trace-event JSON object.

    Timestamps are microseconds relative to the earliest span, so the
    trace opens at t=0 regardless of the process's ``perf_counter`` epoch.
    """
    spans = list(spans)
    events: list[dict] = [
        # process metadata first, so chrome://tracing groups the lanes
        # under a meaningful producer name instead of "pid 1"
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "repro.obs"},
        },
        {
            "name": "process_sort_index",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"sort_index": 0},
        },
    ]
    tid_map: dict[int, int] = {}
    base = min((sp.t0 for sp in spans), default=0.0)
    for sp in sorted(spans, key=lambda s: s.t0):
        if sp.tid not in tid_map:
            tid = tid_map[sp.tid] = len(tid_map) + 1
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": sp.thread},
                }
            )
            events.append(
                {
                    "name": "thread_sort_index",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"sort_index": tid},
                }
            )
        args = {k: _jsonable(v) for k, v in sp.attrs.items()}
        args["span_id"] = sp.sid
        if sp.parent is not None:
            args["parent_span"] = sp.parent
        if sp.deferred:
            args["deferred"] = True
        events.append(
            {
                "name": sp.label,
                "cat": sp.kind,
                "ph": "X",
                "ts": round((sp.t0 - base) * 1e6, 3),
                "dur": round(max(sp.seconds, 0.0) * 1e6, 3),
                "pid": pid,
                "tid": tid_map[sp.tid],
                "args": args,
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs", "spans": len(spans)},
    }


def _provenance(attrs: dict) -> str:
    if "fused_of" in attrs:
        return "fusion: " + "→".join(attrs["fused_of"])
    if "cse_of" in attrs:
        return f"cse: reuses T of node {attrs['cse_of']}"
    return ""


def per_label_report(
    spans: Iterable[Span],
    queue_delta: dict | None = None,
    counters: dict | None = None,
    pool_delta: dict | None = None,
) -> str:
    """Flat per-label report over op and kernel spans (slowest first)."""
    spans = list(spans)
    agg: dict[tuple[str, str], dict] = {}
    for sp in spans:
        a = agg.setdefault(
            (sp.kind, sp.label),
            {"n": 0, "secs": 0.0, "est": 0, "real": 0, "nnz": 0, "prov": ""},
        )
        a["n"] += 1
        a["secs"] += sp.seconds
        a["est"] += sp.attrs.get("flops_estimated", 0)
        a["real"] += sp.attrs.get("flops_realized", 0)
        a["nnz"] += sp.attrs.get("nnz_out", 0)
        a["prov"] = a["prov"] or _provenance(sp.attrs)

    total = sum(sp.seconds for sp in spans)
    lines = [
        f"obs report: {len(spans)} spans, {total * 1e3:.2f} ms total",
    ]
    if queue_delta:
        lines.append(
            "queue: {drains} drains, {elided} elided | planner: {fused} fused, "
            "{cse} CSE hits, schedule width {max_width}".format(**queue_delta)
        )
    if pool_delta and pool_delta.get("submitted"):
        lines.append(
            f"pool: {pool_delta['submitted']} tasks on "
            f"{pool_delta.get('workers', '?')} workers, "
            f"busy {pool_delta.get('busy_seconds', 0.0) * 1e3:.2f} ms"
        )
    header = (
        f"  {'label':<28}{'kind':<8}{'n':>5}{'total ms':>11}"
        f"{'flops est/real':>18}{'nnz out':>9}  provenance"
    )
    lines.append(header)
    for (kind, label), a in sorted(agg.items(), key=lambda kv: -kv[1]["secs"]):
        flops = (
            f"{a['est']}/{a['real']}" if (a["est"] or a["real"]) else "-"
        )
        lines.append(
            f"  {label:<28}{kind:<8}{a['n']:>5}{a['secs'] * 1e3:>11.3f}"
            f"{flops:>18}{a['nnz'] or '-':>9}  {a['prov']}"
        )
    if counters:
        lines.append("counters:")
        for name in sorted(counters):
            lines.append(f"  {name:<44}{counters[name]}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Prometheus text exposition
# --------------------------------------------------------------------------

def _prom_name(name: str, prefix: str) -> str:
    safe = "".join(c if (c.isalnum() or c == "_") else "_" for c in name)
    if safe and safe[0].isdigit():
        safe = "_" + safe
    return f"{prefix}_{safe}" if prefix else safe


def _prom_value(v) -> str:
    if v is None:
        return "NaN"
    f = float(v)
    if f == float("inf"):
        return "+Inf"
    if f == float("-inf"):
        return "-Inf"
    return repr(f) if isinstance(v, float) else str(int(v))


def prometheus_text(
    snapshot: dict, *, gauges: dict | None = None, prefix: str = "repro"
) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` as Prometheus text format.

    Counters become ``<prefix>_<name>_total`` counter series; histograms
    become cumulative ``_bucket{le="..."}`` series at every power-of-two
    edge from the lowest to the highest observed octave, then ``+Inf``,
    ``_sum`` and ``_count``.  An octave edge is also a sub-bucket edge,
    so each cumulative count is exact (it counts values below the edge).
    *gauges* (service-level point-in-time values such as queue depth)
    are emitted as gauge series.  Metric names are sanitized to
    ``[a-zA-Z0-9_]`` — dots in registry names map to underscores, so
    ``service.latency_us`` scrapes as ``repro_service_latency_us``.
    """
    lines: list[str] = []
    for name in sorted(snapshot.get("counters", {})):
        pname = _prom_name(name, prefix) + "_total"
        lines.append(f"# TYPE {pname} counter")
        lines.append(f"{pname} {_prom_value(snapshot['counters'][name])}")
    for name in sorted(snapshot.get("histograms", {})):
        h = snapshot["histograms"][name]
        pname = _prom_name(name, prefix)
        lines.append(f"# TYPE {pname} histogram")
        pairs = h.get("buckets", [])
        octaves = [b // SUB_BUCKETS for b, _ in pairs if b != ZERO_BUCKET]
        cum = i = 0
        for octave in range(octaves[0], octaves[-1] + 1) if octaves else ():
            # the zero bucket sorts first and falls below every edge
            while i < len(pairs) and pairs[i][0] < (octave + 1) * SUB_BUCKETS:
                cum += pairs[i][1]
                i += 1
            edge = _prom_value(ldexp(1.0, octave + 1))
            lines.append(f'{pname}_bucket{{le="{edge}"}} {cum}')
        count = _prom_value(h.get("count", 0))
        lines.append(f'{pname}_bucket{{le="+Inf"}} {count}')
        lines.append(f"{pname}_sum {_prom_value(h.get('total', 0.0))}")
        lines.append(f"{pname}_count {count}")
    for name in sorted(gauges or {}):
        pname = _prom_name(name, prefix)
        lines.append(f"# TYPE {pname} gauge")
        lines.append(f"{pname} {_prom_value(gauges[name])}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Per-request timeline / flamegraph HTML
# --------------------------------------------------------------------------

_TIMELINE_CSS = """
body{font:13px/1.45 -apple-system,Segoe UI,sans-serif;margin:20px;
     background:#fafafa;color:#1a1a1a}
h1{font-size:18px} h2{font-size:15px;margin-top:28px}
.lane{position:relative;height:22px;margin:2px 0;background:#f0f0f2;
      border-radius:3px}
.lane .name{position:absolute;left:4px;top:2px;font-size:11px;color:#555;
      z-index:2;pointer-events:none;white-space:nowrap}
.seg{position:absolute;top:2px;height:18px;border-radius:2px;opacity:.92;
     min-width:1px}
.seg.request{background:#4c78a8}.seg.op{background:#f58518}
.seg.kernel{background:#54a24b}.seg.drain{background:#b279a2}
.seg.batch{background:#9d9d9d}.seg.fused{background:#e45756}
.seg.cse{background:#72b7b2}.seg.region{background:#c5b0d5}
.flame .seg{height:14px}
.legend span{display:inline-block;padding:1px 8px;margin-right:6px;
     border-radius:3px;color:#fff;font-size:11px}
.meta{color:#666;font-size:12px}
"""


def _request_ids_of(sp: Span) -> tuple:
    """Every request id stamped on *sp*, deduplicated, insertion-ordered.

    Provenance attrs arrive in several shapes — a list/tuple from the
    planner, a set from ad-hoc annotation, a bare string from hand-rolled
    spans — and a fused node carries *all* its contributing requests'
    ids.  Dropping the non-list shapes used to collapse cross-request
    fused nodes onto whichever lane happened to survive.
    """
    rids = sp.attrs.get("request_ids")
    if rids is None:
        return ()
    if isinstance(rids, str):
        return (rids,)
    if isinstance(rids, (list, tuple, set, frozenset)):
        out: list[str] = []
        for r in sorted(rids, key=str) if isinstance(rids, (set, frozenset)) else rids:
            s = str(r)
            if s not in out:
                out.append(s)
        return tuple(out)
    return ()


def _seg_class(sp: Span) -> str:
    if "fused_of" in sp.attrs:
        return "fused"
    if "cse_of" in sp.attrs:
        return "cse"
    return sp.kind if sp.kind in (
        "request", "op", "kernel", "drain", "batch"
    ) else "region"


def _seg_html(sp: Span, t0: float, scale: float, *, cls: str | None = None) -> str:
    left = (sp.t0 - t0) * scale
    width = max(sp.seconds * scale, 0.08)
    tip = f"{sp.label} [{sp.kind}] {sp.seconds * 1e3:.3f} ms"
    rids = _request_ids_of(sp)
    if rids:
        tip += " requests=" + ",".join(rids)
    for key in ("fused_of", "cse_of", "flops_realized", "nnz_out"):
        if key in sp.attrs:
            tip += f" {key}={sp.attrs[key]}"
    return (
        f'<div class="seg {cls or _seg_class(sp)}" '
        f'style="left:{left:.3f}%;width:{width:.3f}%" '
        f'title="{_html.escape(tip, quote=True)}"></div>'
    )


def timeline_html(
    spans: Iterable[Span],
    *,
    title: str = "repro request timeline",
    request_timings: dict | None = None,
) -> str:
    """Self-contained HTML: per-request lanes plus per-thread flamegraph.

    The request section draws one lane per originating request id seen in
    the capture: its ``request:*`` issue span plus every drain-scheduled
    op span whose provenance names the request — fused and CSE'd nodes
    appear in *every* contributing request's lane, which is exactly the
    point: shared work is visible as shared.  *request_timings* (optional,
    ``{request_id: {"queue_wait_us": ..., "issue_us": ...,
    "drain_share_us": ...}}``) adds the measured latency decomposition to
    each lane's label.
    """
    spans = sorted(spans, key=lambda s: (s.t0, s.sid))
    if not spans:
        return (
            "<!doctype html><html><head><meta charset='utf-8'>"
            f"<title>{_html.escape(title)}</title></head>"
            "<body><p>no spans captured</p></body></html>"
        )
    t0 = min(sp.t0 for sp in spans)
    t1 = max(sp.t1 for sp in spans)
    scale = 100.0 / max(t1 - t0, 1e-9)

    by_request: dict[str, list[Span]] = {}
    for sp in spans:
        for rid in _request_ids_of(sp):
            by_request.setdefault(rid, []).append(sp)

    out = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>{_html.escape(title)}</title>",
        f"<style>{_TIMELINE_CSS}</style></head><body>",
        f"<h1>{_html.escape(title)}</h1>",
        f"<p class='meta'>{len(spans)} spans, "
        f"{(t1 - t0) * 1e3:.2f} ms window, "
        f"{len(by_request)} attributed requests</p>",
        "<p class='legend'>"
        "<span class='seg request' style='position:static'>request</span>"
        "<span class='seg op' style='position:static'>op</span>"
        "<span class='seg fused' style='position:static'>fused</span>"
        "<span class='seg cse' style='position:static'>cse</span>"
        "<span class='seg kernel' style='position:static'>kernel</span>"
        "<span class='seg drain' style='position:static'>drain</span>"
        "</p>",
        "<h2>Per-request timeline</h2>",
    ]
    for rid in sorted(by_request):
        label = f"request {rid}"
        timing = (request_timings or {}).get(rid)
        if timing:
            label += (
                f" — queue {timing.get('queue_wait_us', 0):.0f}us"
                f" + issue {timing.get('issue_us', 0):.0f}us"
                f" + drain-share {timing.get('drain_share_us', 0):.0f}us"
            )
        segs = "".join(
            _seg_html(sp, t0, scale)
            for sp in by_request[rid]
            if sp.kind in ("request", "op")
        )
        out.append(
            f'<div class="lane"><span class="name">'
            f"{_html.escape(label)}</span>{segs}</div>"
        )
    if not by_request:
        out.append("<p class='meta'>no request-attributed spans</p>")

    out.append("<h2>Per-thread flamegraph</h2>")
    threads: dict[int, list[Span]] = {}
    for sp in spans:
        threads.setdefault(sp.tid, []).append(sp)
    depth_of: dict[int, int] = {}
    for tid, tspans in threads.items():
        name = tspans[0].thread
        out.append(f"<p class='meta'>{_html.escape(name)}</p>")
        sids = {sp.sid for sp in tspans}
        for sp in tspans:
            parent_depth = (
                depth_of.get(sp.parent, -1) if sp.parent in sids else -1
            )
            depth_of[sp.sid] = parent_depth + 1
        max_depth = max((depth_of[sp.sid] for sp in tspans), default=0)
        rows: list[list[str]] = [[] for _ in range(max_depth + 1)]
        for sp in tspans:
            rows[depth_of[sp.sid]].append(_seg_html(sp, t0, scale))
        out.append("<div class='flame'>")
        for row in rows:
            out.append(f'<div class="lane">{"".join(row)}</div>')
        out.append("</div>")
    out.append("</body></html>")
    return "\n".join(out)
