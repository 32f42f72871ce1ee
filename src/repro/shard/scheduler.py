"""The distributed drain scheduler: one DAG level across the worker pool.

Called by :class:`repro.execution.planner.driver.ExecutionPlan` when the
``processes`` backend is active.  For each level it

1. gates every node through :func:`repro.shard.opspec.plan_node` —
   shippable nodes become block tasks, the rest keep their normal local
   runner;
2. publishes input CSRs into shared memory through a version-keyed cache
   (a matrix republishes only after mutation — ``Matrix._version`` bumps
   on every content write), leasing each segment for the level's duration
   so concurrent invalidation can never unlink under an in-flight task;
3. ships the tasks (descriptors, not data) to the persistent pool, runs
   the unshippable nodes locally meanwhile-ordered, and merges each node's
   partials back into the canonical flat-key stream
   (:mod:`repro.shard.merge`);
4. completes each node through the one executor
   (``execute_standard(spec, t=...)``: mask, accumulator, replace/merge
   semantics all run in the parent), instrumented by the same
   :func:`~repro.execution.planner.driver.instrument` local runners get —
   so request attribution and Chrome-trace export keep working, now with
   per-worker lanes.

Failure semantics mirror the thread scheduler: a failing node is recorded
and its siblings still run; the first failure in program order is re-raised
by the driver, which poisons the failed tail.  A *worker* death, by
contrast, is a :class:`repro.info.Panic` that aborts the whole level —
the pool is gone, and no per-node result can be trusted.
"""

from __future__ import annotations

import time
from collections import OrderedDict

from ..obs import diag as _diag
from ..obs import metrics as _metrics
from ..obs import spans as _spans
from ..obs import tracing as _tracing
from ..obs.diag import explain as _explain
from ..parallel import shard_workers
from . import pool as _pool_mod
from .layout import publish_csr, stripe_cuts
from .merge import concat_stripes
from .opspec import plan_node
from .protocol import Error, Task
from .shm import registry

__all__ = ["run_level", "publication_stats", "invalidate_all"]

#: max cached publications; beyond this the least-recently-used entry is
#: dropped (its segments unlink once the current level's leases release)
_PUB_CAP = 32

#: id(matrix) -> {"obj": Matrix, "version": int, "layouts": {orient: BlockLayout}}
#: The strong "obj" reference is deliberate: Matrix is __slots__-bound and
#: not weakref-able, and holding the object pins its id so a recycled
#: address can never alias a stale cache entry.  _PUB_CAP bounds the pin.
_pub: "OrderedDict[int, dict]" = OrderedDict()
_published_count = 0
_published_bytes = 0


def _drop_entry(entry: dict) -> None:
    names = [lay.seg_name for lay in entry["layouts"].values()]
    for name in names:
        registry.discard(name)
        registry.release(name)  # the cache's create-time lease
    p = _pool_mod._pool
    if p is not None and not p.dead:
        p.broadcast_free(names)


def invalidate_all() -> None:
    """Drop every cached publication (tests and teardown)."""
    while _pub:
        _, entry = _pub.popitem(last=False)
        _drop_entry(entry)


def _publish(obj, orient: str, view):
    """Publication hook handed to :func:`plan_node` (see module doc)."""
    global _published_count, _published_bytes
    import numpy as np

    key = id(obj)
    entry = _pub.get(key)
    if entry is not None and (
        entry["obj"] is not obj or entry["version"] != obj._version
    ):
        _pub.pop(key)
        _drop_entry(entry)
        entry = None
    if entry is None:
        entry = {"obj": obj, "version": obj._version, "layouts": {}}
        _pub[key] = entry
    _pub.move_to_end(key)
    layout = entry["layouts"].get(orient)
    if layout is None:
        cuts = stripe_cuts(np.diff(view.indptr), shard_workers())
        layout = publish_csr(view, registry, cuts)
        entry["layouts"][orient] = layout
        _published_count += 1
        _published_bytes += layout.total_bytes
        if _metrics.registry.enabled:
            _metrics.registry.inc("shard.publications")
            _metrics.registry.inc("shard.bytes_published", layout.total_bytes)
    while len(_pub) > _PUB_CAP:
        _, old = _pub.popitem(last=False)
        _drop_entry(old)
    return layout


def publication_stats() -> dict:
    return {
        "cached": len(_pub),
        "published": _published_count,
        "bytes_published": _published_bytes,
        "shm": registry.stats(),
    }


def _emit_task_spans(sink, results) -> None:
    """Synthetic per-task spans on dedicated worker lanes.

    Workers measure their own kernel seconds; the parent backdates each
    span so Chrome-trace export shows one lane per worker process
    (``shard-worker-N``), with pid/worker attributes for correlation.
    """
    for r in results:
        if isinstance(r, Error):
            continue
        sp = sink.open(
            f"shard:{r.task_id}", "kernel",
            worker=r.worker_id, pid=r.pid, flops=r.flops,
            nnz_out=len(r.keys),
        )
        sink.close(sp)
        sp.t0 = sp.t1 - r.seconds
        sp.thread = f"shard-worker-{r.worker_id}"
        sp.tid = 1_000_000 + r.worker_id


def run_level(nodes) -> list:
    """Execute one level; returns ``[(node, exc), ...]`` sorted in program
    order (empty when everything succeeded).  Raises ``Panic`` if the pool
    dies — the driver treats that as failing the entire level."""
    from ..execution.planner.driver import instrument
    from ..operations.common import execute_standard

    plans = []
    local_nodes = []
    for node in nodes:
        plan = None
        if getattr(node, "shard", None) is not None:
            try:
                plan = plan_node(node, _publish)
            except Exception:
                plan = None  # planning must never kill a drain: run locally
        if plan is not None and plan.tasks:
            plans.append(plan)
        else:
            local_nodes.append(node)

    failures: list = []

    def attempt(node, fn) -> None:
        try:
            fn()
        except BaseException as exc:  # mirror the thread scheduler: collect
            failures.append((node, exc))

    if not plans:
        for node in local_nodes:
            attempt(node, node.runner)
        failures.sort(key=lambda nf: nf[0].index)
        return failures

    sink = _spans.current()
    lv_sp = (
        sink.open(
            "shard.level", "drain",
            nodes=len(nodes), sharded=len(plans), deferred=True,
            tasks=sum(len(p.tasks) for p in plans),
        )
        if sink is not None
        else None
    )
    leased: list[str] = []
    try:
        for plan in plans:
            for name in plan.seg_names:
                registry.lease(name)
                leased.append(name)

        tasks = []
        owner: dict[int, tuple] = {}  # task_id -> (plan, slot)
        for plan in plans:
            for slot, st in enumerate(plan.tasks):
                tid = len(tasks)
                tasks.append(Task(task_id=tid, op=st))
                owner[tid] = (plan, slot)

        t0 = time.perf_counter()
        results = _pool_mod.get_pool().run_tasks(tasks)  # Panic on crash
        pool_wall = time.perf_counter() - t0

        # unshippable siblings run in the parent, program-ordered
        for node in local_nodes:
            attempt(node, node.runner)

        if sink is not None:
            _emit_task_spans(sink, results.values())
        if _metrics.registry.enabled:
            _metrics.registry.inc("shard.tasks", len(results))
            _metrics.registry.inc("shard.levels")
            for r in results.values():
                if not isinstance(r, Error):
                    _metrics.registry.observe("shard.task_seconds", r.seconds)
        if _diag.detector() is not None:
            # per-(task kind, worker) baselines: a single sick worker shows
            # up as its own suspect, not as noise on the kernel's average
            for tid, r in results.items():
                if not isinstance(r, Error):
                    _diag.observe_kernel(
                        f"shard.{tasks[tid].op.kind}", "shard", r.worker_id,
                        seconds=r.seconds, flops=r.flops,
                    )

        for plan in plans:
            node = plan.node
            node_results = [
                results[tid] for tid, (p, _) in sorted(owner.items())
                if p is plan
            ]
            errors = [r for r in node_results if isinstance(r, Error)]
            if errors:
                # a task-level failure falls back to the node's local
                # runner: identical semantics, and a genuine kernel error
                # (rather than an infra hiccup) reproduces exactly
                if _metrics.registry.enabled:
                    _metrics.registry.inc("shard.task_errors", len(errors))
                attempt(node, node.runner)
                continue
            parts = [(r.keys, r.vals) for r in node_results]
            flops = sum(r.flops for r in node_results)
            t = concat_stripes(parts, plan.out_dtype)

            def completion(plan=plan, t=t, flops=flops):
                _tracing.tally_flops(flops)
                execute_standard(plan.spec, t=t)

            prov = {
                **node.shard["prov"],
                "sharded": True,
                "shard": {
                    "tasks": len(plan.tasks),
                    "flops": flops,
                },
            }
            col = _explain.current_explain()
            if col is not None:
                col.note_shard(
                    node.index,
                    tasks=len(plan.tasks),
                    workers=sorted({r.worker_id for r in node_results}),
                )
            attempt(
                node,
                instrument(completion, node.label, prov, node.shard["rids"]),
            )

        if lv_sp is not None:
            lv_sp.attrs.update(pool_seconds=round(pool_wall, 6))
    finally:
        for name in leased:
            registry.release(name)
        if lv_sp is not None:
            sink.close(lv_sp)

    failures.sort(key=lambda nf: nf[0].index)
    return failures
