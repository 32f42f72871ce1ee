"""The worker pool as a source of T: one op across the shard workers.

:func:`repro.operations.common.execute_standard` asks :func:`compute` for
an op's internal result when the ``processes`` backend is active — in
blocking and nonblocking mode alike, because both reach the kernel
through that one executor.  :func:`compute`

1. gates the spec through :func:`repro.shard.opspec.plan_spec` — a
   shippable op becomes one block task per stripe, anything else answers
   ``None`` and the caller runs its own kernel;
2. publishes input CSRs into shared memory through a cache keyed by the
   matrix's cached view (a matrix republishes only after a content write
   drops that view), leasing each segment while its tasks are in flight so
   concurrent invalidation can never unlink under them;
3. ships the tasks (descriptors, not data) to the persistent pool and
   concatenates the stripe partials back into the canonical flat-key
   stream (:mod:`repro.shard.merge`);
4. records what happened on the op span that is already open — per-worker
   task lanes, ``sharded=True`` and ``shard={tasks, flops, workers}`` —
   and hands T back cut to the op's mask (workers never see masks), as
   every source of T does; accumulator and replace/merge semantics run in
   the parent's write step.

A task that errors makes :func:`compute` answer ``None`` too: the caller's
own kernel then reproduces a genuine kernel error exactly, and rides out
an infrastructure hiccup.  A *worker* death is a :class:`repro.info.Panic`
raised out of the op, like any other execution error — the pool is gone,
and the next op that ships gets a fresh one.
"""

from __future__ import annotations

from collections import OrderedDict

from ..obs import metrics as _metrics
from ..obs import spans as _spans
from ..obs import tracing as _tracing
from . import pool as _pool_mod
from .layout import publish_csr
from .merge import concat_stripes
from .opspec import plan_spec
from .protocol import Error, Task
from .shm import registry

__all__ = ["compute", "publication_stats", "invalidate_all"]

#: max cached publications; beyond this the least-recently-used entry is
#: dropped (its segment unlinks once the in-flight leases release)
_PUB_CAP = 32

#: id(view) -> (view, BlockLayout).  ``Matrix.csr()``/``csc()`` hand out one
#: cached CSRView until the next content write drops it, so the view object
#: names exactly the content it was copied from.  The strong reference is
#: deliberate: it pins the view's id, so a recycled address can never alias
#: a stale cache entry.  _PUB_CAP bounds the pin.
_pub: "OrderedDict[int, tuple]" = OrderedDict()
_published_count = 0
_published_bytes = 0


def _drop_entry(entry: tuple) -> None:
    name = entry[1].seg_name
    registry.discard(name)
    registry.release(name)  # the cache's create-time lease
    p = _pool_mod._pool
    if p is not None and not p.dead:
        p.broadcast_free([name])


def invalidate_all() -> None:
    """Drop every cached publication (tests and teardown)."""
    while _pub:
        _, entry = _pub.popitem(last=False)
        _drop_entry(entry)


def _publish(view):
    """Publication hook handed to :func:`plan_spec` (see module doc)."""
    global _published_count, _published_bytes

    key = id(view)
    entry = _pub.get(key)
    if entry is not None:
        _pub.move_to_end(key)
        return entry[1]
    layout = publish_csr(view, registry)
    _pub[key] = (view, layout)
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
        sp = sink.open(
            f"shard:{r.task_id}", "kernel",
            worker=r.worker_id, pid=r.pid, flops=r.flops,
            nnz_out=len(r.keys),
        )
        sink.close(sp)
        sp.t0 = sp.t1 - r.seconds
        sp.thread = f"shard-worker-{r.worker_id}"
        sp.tid = 1_000_000 + r.worker_id


def compute(spec, mask_view):
    """``(t_keys, t_vals)`` for *spec* from the worker pool, or ``None``
    when the caller should run the kernel itself (the gate said no, or a
    task errored).  *mask_view* is the op's built mask: it informs the gate,
    and the unmasked T the stripes ship is cut to it here.  Raises
    ``Panic`` if the pool dies under the op."""
    try:
        plan = plan_spec(spec, _publish, mask_view)
    except Exception:
        return None  # planning must never kill an op: run locally
    if plan is None or not plan.tasks:
        return None

    tasks = [Task(task_id=i, op=st) for i, st in enumerate(plan.tasks)]
    leased: list[str] = []
    try:
        for name in plan.seg_names:
            registry.lease(name)
            leased.append(name)
        # the pool's wall clock on the calling thread; what the workers did
        # inside it lands on their own lanes below
        with _spans.span("shard", "kernel", tasks=len(tasks)):
            by_id = _pool_mod.get_pool().run_tasks(tasks)  # Panic on crash
    finally:
        for name in leased:
            registry.release(name)
    results = [by_id[t.task_id] for t in tasks]  # stripe order
    done = [r for r in results if not isinstance(r, Error)]

    sink = _spans.current()
    if sink is not None:
        _emit_task_spans(sink, done)
    if _metrics.registry.enabled:
        _metrics.registry.inc("shard.tasks", len(results))
        for r in done:
            _metrics.registry.observe("shard.task_seconds", r.seconds)
    if len(done) < len(results):
        if _metrics.registry.enabled:
            _metrics.registry.inc("shard.task_errors", len(results) - len(done))
        return None

    flops = sum(r.flops for r in done)
    _tracing.tally_flops(flops)
    _spans.annotate(
        sharded=True,
        shard={
            "tasks": len(done),
            "flops": flops,
            "workers": sorted({r.worker_id for r in done}),
        },
    )
    t = concat_stripes([(r.keys, r.vals) for r in done], plan.out_dtype)
    return t if mask_view is None else mask_view.restrict(*t)
