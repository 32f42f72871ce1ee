"""Plan EXPLAIN: a faithful rendering of what the drain-time planner
actually decided — per node, per request.

The nonblocking model makes the interesting decisions invisible: by the
time a client sees its answer, the planner has elided dead ops, fused
producer→consumer chains, merged CSE duplicates (possibly *across*
requests in a batched drain) and picked a kernel backend.  EXPLAIN
records those decisions as they are made — a thread-local
:class:`ExplainCollector` installed around a drain receives one record
per built plan — and renders them as JSON or human-readable text.

Exposure paths (wired in the service layer):

* per request — ``explain: true`` on a wire request attaches the record
  to the response (Descriptor-style opt-in);
* ``explain`` wire command — renders the most recent drain's plans;
* ``python -m repro.obs.diag explain program.json`` — runs a recorded
  fuzz program under the full planner and prints its EXPLAIN.
"""

from __future__ import annotations

import threading

__all__ = [
    "ExplainCollector",
    "collect",
    "current_explain",
    "render_text",
    "explain_program",
]

_tls = threading.local()


class ExplainCollector:
    """Accumulates one record per plan built while installed."""

    def __init__(self):
        self._mu = threading.Lock()
        self.plans: list[dict] = []

    def record_plan(self, record: dict) -> None:
        with self._mu:
            record["plan"] = len(self.plans) + 1
            self.plans.append(record)

    def record(self) -> dict:
        with self._mu:
            return {"plans": list(self.plans)}

    def for_request(self, request_id: str) -> dict:
        """The record filtered to nodes attributed to *request_id*."""
        with self._mu:
            plans = []
            for p in self.plans:
                nodes = [
                    n for n in p.get("nodes", [])
                    if request_id in n.get("request_ids", ())
                ]
                if nodes:
                    q = {k: v for k, v in p.items() if k != "nodes"}
                    q["nodes"] = nodes
                    plans.append(q)
        return {"request_id": request_id, "plans": plans}


class collect:
    """Install a collector for the ``with`` body (thread-local stack)."""

    __slots__ = ("_col",)

    def __init__(self, collector: ExplainCollector | None = None):
        self._col = collector if collector is not None else ExplainCollector()

    def __enter__(self) -> ExplainCollector:
        stack = getattr(_tls, "explain_stack", None)
        if stack is None:
            stack = _tls.explain_stack = []
        stack.append(self._col)
        return self._col

    def __exit__(self, *exc) -> None:
        stack = getattr(_tls, "explain_stack", None)
        if stack:
            stack.pop()


def current_explain() -> ExplainCollector | None:
    """The collector the planner should report to, or None (hot default)."""
    stack = getattr(_tls, "explain_stack", None)
    return stack[-1] if stack else None


# --------------------------------------------------------------------------
# rendering
# --------------------------------------------------------------------------

def _node_line(node: dict) -> list[str]:
    kind = node.get("kind", "plain")
    head = f"[{node['index']}] L{node.get('level', '?')} {node['label']}"
    details: list[str] = []
    if kind == "fused":
        chain = node.get("ops", [])
        details.append(
            f"fused chain of {len(chain)}: " + " -> ".join(chain)
        )
        be = node.get("backend")
        if be:
            flag = node.get("compile_eligible")
            comp = "" if flag is None else (
                " (compile-eligible)" if flag else " (interpreted)"
            )
            details.append(f"kernel backend: {be}{comp}")
    elif kind == "cse":
        details.append(
            f"cse: reuses T of node {node.get('cse_source')}"
        )
    elif node.get("backend"):
        details.append(f"kernel backend: {node['backend']}")
    rids = node.get("request_ids", ())
    if rids:
        word = "shared by" if len(rids) > 1 else "request"
        details.append(f"{word}: " + ", ".join(rids))
    preds = node.get("preds", ())
    if preds:
        details.append(
            "hazards after: " + ", ".join(str(p) for p in preds)
        )
    return [head] + ["    " + d for d in details]


def render_text(record: dict) -> str:
    """Human-readable EXPLAIN of a collector record (or per-request slice)."""
    lines: list[str] = []
    rid = record.get("request_id")
    if rid:
        lines.append(f"EXPLAIN for request {rid}")
    plans = record.get("plans", [])
    if not plans:
        lines.append("no plans recorded (nothing drained)")
        return "\n".join(lines)
    for p in plans:
        opt = "on" if p.get("optimize", True) else "off"
        lines.append(
            f"plan {p.get('plan', '?')}: {len(p.get('nodes', []))} node(s), "
            f"{p.get('levels', '?')} level(s), planner {opt}, "
            f"kernel backend {p.get('kernel_backend', '?')}"
        )
        summary = []
        if p.get("elided"):
            summary.append(f"{p['elided']} dead op(s) elided")
        if p.get("fused_chains"):
            summary.append(f"{p['fused_chains']} fused chain(s)")
        if p.get("cse_merged"):
            summary.append(f"{p['cse_merged']} cse merge(s)")
        if summary:
            lines.append("  " + "; ".join(summary))
        for node in p.get("nodes", []):
            lines.extend("  " + ln for ln in _node_line(node))
    memo = record.get("memo")
    if memo:
        lines.append(f"memo cache: {memo}")
    snapshot = record.get("snapshot")
    if snapshot is not None:
        lines.append(f"snapshot version: {snapshot}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# programs (the CLI path)
# --------------------------------------------------------------------------

def explain_program(program, mode=None) -> dict:
    """Run a recorded fuzz Program under the full planner, collecting its
    EXPLAIN; returns the collector record."""
    from ...fuzz import executor as fuzz_executor

    if mode is None:
        mode = fuzz_executor.ExecMode(nonblocking=True)
    with collect() as col:
        fuzz_executor.run_optimized(program, mode)
    return col.record()
