"""Bench-side spans and the layer accounting derived from them.

The benchmark records its own spans around every public call it makes
(``unit`` -> ``call:<op>`` / ``wait`` / ``request``), keeps them in memory
and writes them out when the run ends.  In a traced run the program's own
spans (``repro.obs.capture`` in-process, the flight-recorder ``dump`` of a
server child) are merged in as children, and a layer's time is the *self*
time of its spans: duration minus the part its children cover.

A span is a plain dict: ``id, parent, name, kind, t0, t1, thread, unit``
plus optional ``attrs``.  Kinds map to layers as:

=========  ==========================================================
kernel     ``kernels``     (program span: spgemm / spmv / reduce_rows)
op         ``operations``  (program span: a Table II method body)
drain      ``execution``   (program span: planner + queue drain)
request    ``service``     (program span: executor issue phase)
batch      ``service``     (program span: one drained session batch)
call       the layer the workload names for that call (bench span)
client     split by the server's ``timing`` fields (bench span: a request)
unit       ``bench``       (bench span: loop + check overhead)
=========  ==========================================================
"""

from __future__ import annotations

import bisect
import json
import math

KIND_LAYER = {
    "kernel": "kernels",
    "op": "operations",
    "drain": "execution",
    "request": "service",
    "batch": "service",
    "unit": "bench",
}
#: which kinds may enclose a span whose parent the flight recorder dropped
ENCLOSING = {
    "kernel": ("op",),
    "op": ("drain", "request", "batch"),
    "drain": ("request", "batch"),
}
LAYERS = ("bench", "algorithms", "wire", "service_queue", "service",
          "execution", "operations", "kernels")

#: exact counts the planner attaches to every drain span
DRAIN_COUNTS = ("ops", "executed", "elided", "fused", "cse")


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of raw samples (never histogram buckets)."""
    s = sorted(samples)
    return s[max(0, math.ceil(q * len(s)) - 1)]


class Recorder:
    """In-memory span store for one run; ids are list positions."""

    def __init__(self):
        self.spans: list[dict] = []

    def add(self, name, kind, t0, t1, parent=None, unit=None, thread="main",
            layer=None, attrs=None) -> int:
        sid = len(self.spans)
        sp = {"id": sid, "parent": parent, "name": name, "kind": kind,
              "t0": t0, "t1": t1, "thread": thread, "unit": unit}
        if layer:
            sp["layer"] = layer
        if attrs:
            sp["attrs"] = attrs
        self.spans.append(sp)
        return sid

    def adopt(self, program_spans) -> None:
        """Merge program spans (``repro.obs`` Span objects) as children.

        Ids are offset past the bench spans; a program span without a
        parent of its own hangs under the bench ``call`` span on the same
        thread whose interval contains it, so self times nest correctly.
        """
        base = len(self.spans)
        calls = sorted(
            (s for s in self.spans if s["kind"] == "call"),
            key=lambda s: s["t0"],
        )
        starts = [s["t0"] for s in calls]
        for sp in program_spans:
            parent = None if sp.parent is None else base + sp.parent
            unit = None
            if parent is None and sp.thread == "MainThread":
                k = bisect.bisect_right(starts, sp.t0) - 1
                if k >= 0 and calls[k]["t1"] >= sp.t1:
                    parent, unit = calls[k]["id"], calls[k]["unit"]
            attrs = {
                k: v for k, v in sp.attrs.items()
                if isinstance(v, (int, float, str, bool))
            }
            self.spans.append({
                "id": base + sp.sid, "parent": parent, "name": sp.label,
                "kind": sp.kind, "t0": sp.t0, "t1": sp.t1,
                "thread": sp.thread, "unit": unit, "attrs": attrs,
            })

    def adopt_chrome(self, events: list[dict]) -> None:
        """Merge a flight-recorder dump (Chrome trace events on the
        server's clock; only durations and nesting are used).

        The ring keeps the newest spans and stores op / kernel spans
        without a parent, so (a) everything that began before the oldest
        retained span closed is dropped — its children may be gone — and
        (b) a parentless span hangs under the latest-starting span of an
        enclosing kind that contains it in time.
        """
        evs = [e for e in events if e.get("ph") == "X"]
        if not evs:
            return
        cut = min(e["ts"] + e["dur"] for e in evs)
        base = len(self.spans)
        new = []
        for ev in sorted((e for e in evs if e["ts"] >= cut),
                         key=lambda e: e["ts"]):
            args = ev.get("args", {})
            parent = args.get("parent_span")
            new.append({
                "id": base + args["span_id"],
                "parent": None if parent is None else base + parent,
                "name": ev["name"], "kind": ev.get("cat", ""),
                "t0": ev["ts"] * 1e-6, "t1": (ev["ts"] + ev["dur"]) * 1e-6,
                "thread": f"server-{ev.get('tid')}", "unit": None,
                "attrs": {k: v for k, v in args.items()
                          if isinstance(v, (int, float, str, bool))},
            })
        ids = {s["id"] for s in new}
        open_: list[dict] = []  # spans begun so far that may still enclose
        for s in new:
            open_ = [p for p in open_ if p["t1"] >= s["t0"]]
            if s["parent"] not in ids:
                s["parent"] = None
                for p in reversed(open_):
                    if p["kind"] in ENCLOSING.get(s["kind"], ()) and p["t1"] >= s["t1"]:
                        s["parent"] = p["id"]
                        break
            open_.append(s)
        self.spans.extend(new)

    def write(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": self.spans}, fh)
            fh.write("\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time (seconds) of every span: duration minus children.

    A child whose parent is not in *spans* (evicted from a ring) counts as
    a root; clamped at zero because sibling spans on a pool may overlap.
    """
    by_id = {s["id"]: s for s in spans}
    out = {s["id"]: s["t1"] - s["t0"] for s in spans}
    for s in spans:
        p = s["parent"]
        if p is not None and p in by_id:
            out[p] -= s["t1"] - s["t0"]
    return {k: max(v, 0.0) for k, v in out.items()}


def layer_seconds(spans: list[dict]) -> dict[str, float]:
    """Total self time per layer over *spans*."""
    selfs = self_times(spans)
    out = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer = s.get("layer") or KIND_LAYER.get(s["kind"])
        if layer is not None:
            out[layer] += selfs[s["id"]]
    return out


def kernel_counts(spans: list[dict]) -> dict[str, float]:
    """Exact work counts carried by kernel and drain span attributes."""
    out = {"invocations": 0, "flops_estimated": 0, "flops_realized": 0}
    out.update(dict.fromkeys(DRAIN_COUNTS, 0))
    out["max_width"] = 0
    for s in spans:
        a = s.get("attrs") or {}
        if s["kind"] == "kernel":
            out["invocations"] += 1
            out["flops_estimated"] += a.get("flops_estimated", 0)
            out["flops_realized"] += a.get("flops_realized", 0)
        elif s["kind"] == "drain":
            for k in DRAIN_COUNTS:
                out[k] += a.get(k, 0)
            out["max_width"] = max(out["max_width"], a.get("max_width", 0))
    return out


def account(rec: Recorder, units: int) -> dict:
    """Where a unit's time went, by layer, plus the exact work counts.

    Library runs: the denominator is the bench ``unit`` spans (calls plus
    check); every span's self time lands in its layer.  Service runs: the
    denominator is the client-side request latency; ``wire`` is what the
    server's own ``total_us`` does not cover, ``service_queue`` its queue
    wait, the program spans give kernels / operations / execution, and
    ``service`` is the rest of the server-side time.  A flight-recorder
    dump holds only the newest spans, so program-span sums are scaled by
    measured requests over request spans seen.
    """
    spans = rec.spans
    client = [s for s in spans if s["kind"] == "client"]
    program = [s for s in spans if s["kind"] in KIND_LAYER and s["kind"] != "unit"]
    if client:
        total = sum(s["t1"] - s["t0"] for s in client)
        server = sum((s["attrs"]["total_us"] or 0.0) for s in client) * 1e-6
        queue = sum((s["attrs"]["queue_wait_us"] or 0.0) for s in client) * 1e-6
        seen = sum(1 for s in program if s["kind"] == "request")
        scale = len(client) / seen if seen else 0.0
        lay = {k: v * scale for k, v in layer_seconds(program).items()}
        inner = lay["kernels"] + lay["operations"] + lay["execution"]
        lay.update(wire=max(total - server, 0.0), service_queue=queue,
                   service=max(server - queue - inner, 0.0))
    else:
        scale = 1.0
        total = sum(s["t1"] - s["t0"] for s in spans if s["kind"] == "unit")
        lay = layer_seconds(spans)
    counts = {k: (v if k == "max_width" else v * scale / units)
              for k, v in kernel_counts(program).items()}
    calls: dict[str, list] = {}
    for s in spans:
        if s["kind"] == "call":
            calls.setdefault(s["name"], []).append(s["t1"] - s["t0"])
    return {
        "unit_ms": total / units * 1e3,
        "share": {k: lay[k] / total for k in LAYERS},
        "per_unit": counts,
        "calls": {k: {"per_unit": len(v) / units,
                      "mean_ms": sum(v) / len(v) * 1e3,
                      "share": sum(v) / total} for k, v in calls.items()},
    }
