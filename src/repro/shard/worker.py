"""Worker-process entry point for the sharded backend.

Spawned (never forked — the parent may hold live threads and pool locks)
with one duplex pipe back to the drain scheduler.  The loop is
deliberately dumb: receive a :class:`~repro.shard.protocol.Task`, attach
its shared segments, rebuild the operator from the algebra registries, run
the op's own kernel body from :mod:`repro.operations._kernels` over the
task's row window, ship the partial back.  That body is the one the
parent's serial path runs over ``slice(0, nrows)``, so a stripe is
bit-identical to the same rows of the full call by construction.  Workers
never create shared memory, never see masks or accumulators (the
parent owns GraphBLAS semantics; an unmasked T only ever carries extra
whole cells, which the parent cuts to the mask as T arrives), and never
nest parallelism — the backend is pinned to ``serial`` so kernels cannot
fan out beneath the pool.
"""

from __future__ import annotations

import os
import time
import traceback

__all__ = ["worker_main"]


def _run_task(task, seg_cache: dict, cast_cache: dict):
    """Execute one ShardTask → (keys, vals, flops)."""
    from ..algebra.predefined import SEMIRING_REGISTRY
    from ..operations._kernels import _spgemm_block, _spmv_rows
    from ..types import cast_array, lookup_type
    from .layout import attach_csr

    a_view = attach_csr(task.a, seg_cache)
    rows = slice(task.lo, task.hi)
    acc: list = []  # realized multiply count, as the kernel spans report it

    def cast(view, layout, src_name, dst_type):
        key = (layout.seg_name, dst_type.name)
        hit = cast_cache.get(key)
        if hit is None:
            hit = cast_array(view.values, lookup_type(src_name), dst_type)
            cast_cache[key] = hit
        return hit

    if task.kind == "mxm":
        sr = SEMIRING_REGISTRY[task.op_name]
        b_view = attach_csr(task.b, seg_cache)
        a_vals = cast(a_view, task.a, task.a_type, sr.d_in1)
        b_vals = cast(b_view, task.b, task.b_type, sr.d_in2)
        keys, vals = _spgemm_block(
            a_view, a_vals, b_view, b_vals, sr, rows, None, acc
        )
        return keys, vals, sum(acc)
    if task.kind in ("mxv", "vxm"):
        sr = SEMIRING_REGISTRY[task.op_name]
        a_vals = cast(
            a_view, task.a, task.a_type,
            sr.d_in2 if task.swap else sr.d_in1,
        )
        keys, vals = _spmv_rows(
            a_view, a_vals, task.v_keys, task.v_vals, sr, task.swap, rows, acc
        )
        return keys, vals, sum(acc)
    raise ValueError(f"unknown shard task kind {task.kind!r}")


def _free_segments(names, seg_cache: dict, cast_cache: dict) -> None:
    for name in names:
        for key in [k for k in cast_cache if k[0] == name]:
            cast_cache.pop(key, None)
        entry = seg_cache.pop(name, None)
        if entry is not None:
            try:
                entry[0].close()
            except Exception:
                # a numpy view may still pin the mapping; the segment is
                # already unlinked parent-side, so dropping our reference
                # and letting gc finish the close is fine
                pass


def _drain_ring(ring) -> tuple:
    """Pop every closed span off the worker's ring as wire-safe tuples."""
    out = []
    q = ring.ring
    while q:
        try:
            sp = q.popleft()
        except IndexError:  # pragma: no cover - single-threaded worker
            break
        if type(sp) is tuple:  # fast-append entry: already wire-shaped
            label, kind, t0, t1, attrs, _deferred = sp
            out.append((label, kind, t0, t1, dict(attrs) if attrs else {}))
        else:
            out.append((sp.label, sp.kind, sp.t0, sp.t1, dict(sp.attrs)))
    return tuple(out)


def _counter_deltas(last: dict) -> tuple:
    """(name, delta) pairs since the previous ship; updates *last*."""
    from ..obs import metrics as _metrics

    snap = _metrics.registry.snapshot()["counters"]
    deltas = []
    for name, v in snap.items():
        d = v - last.get(name, 0)
        if d:
            deltas.append((name, d))
    last.clear()
    last.update(snap)
    return tuple(deltas)


def worker_main(conn, worker_id: int) -> None:
    from ..obs import metrics as _metrics
    from ..obs import spans as _spans
    from ..obs.diag.recorder import RingSink
    from ..parallel import set_backend, set_kernel_backend
    from .protocol import Free, Hello, Shutdown, Task, Error, Result, recv_msg, send_msg

    set_backend("serial")  # no thread fan-out beneath the process pool
    # workers compute unfused T blocks only — chains never ship, so the
    # interpreter suite is pinned regardless of the parent's selection
    set_kernel_backend("interpreter")
    # the worker's own flight-recorder ring + always-on counters: spans
    # and counter deltas ship back piggybacked on each Result, so the
    # parent can stitch a causally-ordered dump even if this process is
    # later SIGKILLed
    _metrics.registry.enable()
    ring = RingSink(256)
    _spans.arm_ring(ring)
    shipped_counters: dict = {}
    seg_cache: dict = {}
    cast_cache: dict = {}
    send_msg(
        conn,
        Hello(worker_id=worker_id, pid=os.getpid(), t_mono=time.perf_counter()),
    )
    try:
        while True:
            try:
                msg = recv_msg(conn)
            except (EOFError, OSError):
                break
            if isinstance(msg, Shutdown):
                break
            if isinstance(msg, Free):
                _free_segments(msg.names, seg_cache, cast_cache)
                continue
            if not isinstance(msg, Task):
                continue
            t0 = time.perf_counter()
            try:
                with _spans.span(
                    f"shard.{msg.op.kind}", "kernel",
                    task_id=msg.task_id, worker_id=worker_id,
                ):
                    keys, vals, flops = _run_task(msg.op, seg_cache, cast_cache)
            except BaseException:
                _metrics.registry.inc("shard.worker.task_errors")
                send_msg(
                    conn,
                    Error(
                        task_id=msg.task_id,
                        message=traceback.format_exc(),
                        worker_id=worker_id,
                    ),
                )
                continue
            _metrics.registry.inc("shard.worker.tasks")
            send_msg(
                conn,
                Result(
                    task_id=msg.task_id,
                    keys=keys,
                    vals=vals,
                    worker_id=worker_id,
                    pid=os.getpid(),
                    seconds=time.perf_counter() - t0,
                    flops=flops,
                    spans=_drain_ring(ring),
                    metrics=_counter_deltas(shipped_counters),
                ),
            )
    finally:
        _free_segments(list(seg_cache), seg_cache, cast_cache)
        try:
            conn.close()
        except Exception:
            pass
