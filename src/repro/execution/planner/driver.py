"""Plan construction and the level-order DAG scheduler.

:func:`build_plan` is the queue's drain-time entry point: it runs the pass
pipeline (dead-op → fusion → CSE, each individually switchable via
:mod:`.config`) and returns an :class:`ExecutionPlan` whose :meth:`run`
executes the surviving nodes level by level (with the planner off: the ops
themselves, one per level, in program order).  Nodes within a level share no
hazards, so when :func:`repro.parallel.get_num_threads` is above 1 a
level's nodes are dispatched concurrently on the shared thread pool — with
nested kernel parallelism suppressed via
:func:`repro.parallel.serial_section` so scheduler workers never re-enter
the pool they occupy.
"""

from __future__ import annotations

from typing import Callable

from ...obs import metrics as _metrics
from ...obs import tracing as _tracing
from ...obs.diag import explain as _explain
from ...obs.spans import wrap_thunk
from ...parallel import (
    get_backend,
    get_kernel_backend,
    get_num_threads,
    serial_section,
    thread_pool,
)
from ..sequence import DeferredOp, QueueStats
from .config import options
from .graph import OpNode, build_graph
from .passes import cse_pass, dead_op_pass, fusion_pass

__all__ = ["build_plan", "ExecutionPlan", "instrument"]


def instrument(
    fn: Callable[[], None],
    label: str,
    prov: dict | None = None,
    rids=(),
    deferred: bool = True,
) -> Callable[[], None]:
    """Wrap one op body in everything that observes it — the only place the
    span / accounting sequence is written.

    *fn* becomes an op span under *label* with *prov* (rewrite provenance,
    originating request ids) in its attrs; with a
    :class:`repro.obs.tracing.DrainAccounting` installed on the calling
    thread its wall time and realized flops are tallied under *rids* (bound
    by closure, so nodes dispatched to pool threads still report back).
    With neither armed *fn* comes back unchanged.
    """
    runner = wrap_thunk(fn, label, deferred, prov or None)
    acct = _tracing.current_accounting()
    return acct.wrap(runner, rids) if acct is not None else runner


def _node_provenance(nodes: list[OpNode]) -> dict[int, tuple[list, list]]:
    """(request_ids, trace_ids) per node — provenance merge, not loss.

    A node's ids are the union over its member ops' enqueue-time stamps, so
    a pair fused *across requests* carries both originators.  A CSE source
    additionally absorbs the ids of every duplicate that will reuse its
    cached result: the kernel it runs is shared work, and a per-request
    drain-share apportioned from these ids must bill every beneficiary.
    """
    rids: dict[int, set] = {}
    tids: dict[int, set] = {}
    for node in nodes:
        traces = [op.trace for op in node.ops if op.trace is not None]
        rids[node.index] = {str(t.request_id) for t in traces}
        tids[node.index] = {t.trace_id for t in traces}
    for node in nodes:
        src = node.cse_source
        if src is not None and src in rids:
            rids[src] |= rids[node.index]
            tids[src] |= tids[node.index]
    return {
        i: (sorted(rids[i]), sorted(tids[i])) for i in rids
    }


def _attach_runners(nodes: list[OpNode], provenance: dict) -> None:
    """Give every node its executable: pick where T comes from, then
    :func:`instrument` it.

    A node computes its internal result T from its own op (plain /
    capture nodes — kernel or worker pool, ``execute_standard``'s choice),
    the CSE cache, or a fused chain, and every source ends in the same
    write pipeline.  Runners are instrumented *now*, at drain time, so a
    scheduled node records exactly one op span, under a label that makes
    planner rewrites visible (``mxm+apply[fused]``, ``mxm[cse]``).
    """
    from ...operations.common import execute_chain, execute_standard

    cache: dict[int, tuple] = {}
    for node in nodes:
        rids, t_ids = provenance[node.index]
        prov: dict = {}
        if rids:
            prov["request_ids"] = rids
            prov["trace_ids"] = t_ids
        if node.fused_chain is not None:

            def run(specs=tuple(node.fused_chain)):
                execute_chain(list(specs))

            prov["fused_of"] = [op.label for op in node.ops]
        elif node.cse_source is not None:

            def run(spec=node.ops[0].spec, src=node.cse_source):
                _metrics.registry.inc("op.cse_reuses")
                execute_standard(spec, t=cache[src])

            prov["cse_of"] = node.cse_source
        elif node.capture:

            def run(spec=node.ops[0].spec, idx=node.index):
                execute_standard(
                    spec, capture=lambda k, v: cache.__setitem__(idx, (k, v))
                )

        else:
            run = node.ops[0].thunk
        node.runner = instrument(run, node.label, prov, rids)


def _explain_record(
    levels: list[list[OpNode]], provenance: dict, elided: int
) -> dict:
    """One EXPLAIN entry for a built plan: every node with its rewrite
    kind, hazard predecessors, provenance, and backend choice."""
    kb = get_kernel_backend()
    entries: list[dict] = []
    fused = cse = 0
    for node in (n for level in levels for n in level):
        rids, tids = provenance[node.index]
        entry: dict = {
            "index": node.index,
            "label": node.label,
            "ops": [op.label for op in node.ops],
            "level": node.level,
            "preds": sorted(node.preds),
            "request_ids": rids,
            "trace_ids": tids,
            "kind": "plain",
            "backend": kb,
        }
        if node.fused_chain is not None:
            entry["kind"] = "fused"
            fused += 1
            if kb == "codegen":
                entry["compile_eligible"] = _compile_eligible(node.fused_chain)
        elif node.cse_source is not None:
            entry["kind"] = "cse"
            entry["cse_source"] = node.cse_source
            cse += 1
        elif node.capture:
            entry["kind"] = "capture"
        entries.append(entry)
    return {
        "optimize": options().enabled,
        "kernel_backend": kb,
        "exec_backend": get_backend(),
        "levels": len(levels),
        "elided": elided,
        "fused_chains": fused,
        "cse_merged": cse,
        "nodes": entries,
    }


def _compile_eligible(chain) -> bool:
    """Would the codegen backend compile this fused chain on this host?"""
    from ...kernels.codegen import _compilable

    try:
        return _compilable(list(chain)) is not None
    except Exception:  # user-shaped specs: EXPLAIN must never kill a drain
        return False


class ExecutionPlan:
    """A scheduled sequence: levels of mutually independent nodes.

    After :meth:`run`, :attr:`failed_ops` holds the member ops of every node
    that did not complete (the failing node first), in execution order — the
    queue exposes it so the context can poison their outputs (section V).
    """

    def __init__(
        self,
        levels: list[list[OpNode]],
        stats: QueueStats,
    ):
        self._levels = levels
        self._stats = stats
        self.failed_ops: list[DeferredOp] = []

    def _fail(self, lvl: int, failing: list[OpNode]) -> None:
        remaining = [n for level in self._levels[lvl + 1 :] for n in level]
        self.failed_ops = [
            op for n in failing + remaining for op in n.ops
        ]

    def run(self) -> None:
        for lvl, level in enumerate(self._levels):
            if len(level) > 1 and get_num_threads() > 1:
                self._run_level_parallel(lvl, level)
            else:
                self._run_level_serial(lvl, level)

    def _run_level_serial(self, lvl: int, level: list[OpNode]) -> None:
        for pos, node in enumerate(level):
            try:
                node.runner()
            except BaseException:
                self._fail(lvl, level[pos:])
                raise
            self._stats.executed += len(node.ops)

    def _run_level_parallel(self, lvl: int, level: list[OpNode]) -> None:
        # Workers run under serial_section so a node's kernels don't submit
        # to the pool the scheduler is occupying (nested-pool deadlock).
        def guarded(runner: Callable[[], None]):
            def run():
                with serial_section():
                    runner()

            return run

        pool = thread_pool()
        futures = [(node, pool.submit(guarded(node.runner))) for node in level]
        failures: list[tuple[OpNode, BaseException]] = []
        for node, fut in futures:
            try:
                fut.result()
            except BaseException as exc:
                failures.append((node, exc))
            else:
                self._stats.executed += len(node.ops)
        if failures:
            # program order decides which error surfaces (section V: the
            # first execution error in the sequence)
            failures.sort(key=lambda nf: nf[0].index)
            self._fail(lvl, [n for n, _ in failures])
            raise failures[0][1]


def build_plan(ops: list[DeferredOp], stats: QueueStats) -> ExecutionPlan:
    """Turn *ops* into an :class:`ExecutionPlan`.

    With the planner on, lift them into the DAG, run the enabled passes and
    level the survivors; with it off, the plan is the ops themselves — one
    singleton level each, in program order, no graph and no passes.  Either
    way the nodes get their runners, and their EXPLAIN record, from the
    same code.
    """
    opts = options()
    n_elided = 0
    if opts.enabled:
        live = ops
        if opts.dead_op:
            live, elided = dead_op_pass(ops)
            n_elided = len(elided)
            stats.elided += n_elided
        g = build_graph(live)
        owner = list(range(len(live)))
        if opts.fusion:
            stats.fused += fusion_pass(g, live, owner)
        if opts.cse:
            stats.cse += cse_pass(g, live, owner)
        levels = g.assign_levels()
        # the widest level the DAG scheduler has seen; program-order plans
        # have no DAG and leave the high-water mark alone
        stats.max_width = max([stats.max_width, *map(len, levels)])
    else:
        levels = [
            [OpNode(i, [op], preds={i - 1} if i else set(), level=i)]
            for i, op in enumerate(ops)
        ]
    nodes = [n for level in levels for n in level]
    provenance = _node_provenance(nodes)
    _attach_runners(nodes, provenance)
    col = _explain.current_explain()
    if col is not None:
        col.record_plan(_explain_record(levels, provenance, n_elided))
    return ExecutionPlan(levels, stats)
