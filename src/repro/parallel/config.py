"""Execution-backend configuration for parallel kernels.

Three backends share this module's knobs:

* ``serial`` — everything on the calling thread;
* ``threads`` — the original shared thread pool (numpy releases the GIL
  inside vectorized segments, so speedups are real though modest);
* ``processes`` — the sharded multi-process backend
  (:mod:`repro.shard`): CSR blocks in shared memory, each shippable op's
  kernel cut into row stripes for a persistent worker pool, partials
  merged back in the parent.  The selector alone decides — blocking and
  nonblocking calls, planner on or off, all reach the pool through
  :func:`repro.operations.common.execute_standard`.

A single process-wide thread pool is created lazily and resized on demand;
the kernels ask :func:`get_num_threads` and :func:`parallel_threshold` to
decide whether splitting is worthwhile (below the threshold the partition
overhead dominates — the classic HPC rule that you profile before you
parallelize).  :func:`shutdown_pools` — registered with :mod:`atexit` —
tears down both pools *and* unlinks every registered shared-memory
segment, so an aborted drain can never leak ``/dev/shm`` entries past
interpreter exit.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

from ..info import InvalidValue

__all__ = [
    "get_backend",
    "set_backend",
    "get_kernel_backend",
    "set_kernel_backend",
    "register_kernel_backend",
    "get_num_threads",
    "set_num_threads",
    "parallel_threshold",
    "set_parallel_threshold",
    "shard_workers",
    "set_shard_workers",
    "row_blocks",
    "thread_pool",
    "serial_section",
    "pool_stats",
    "shutdown_pools",
]

BACKENDS = ("serial", "threads", "processes")
#: kernel-suite backends (how a planned op/chain computes T), orthogonal to
#: the execution backend above (where it runs).  "interpreter" is the
#: hand-written kernel suite; "codegen" compiles eligible fused chains
#: (see :mod:`repro.kernels`).  Third-party suites register themselves via
#: :func:`register_kernel_backend`.
KERNEL_BACKENDS = ("interpreter", "codegen")
DEFAULT_THRESHOLD = 200_000
#: hard cap on shard workers — deliberately *not* clamped to cpu_count():
#: oversubscription is how the 2-worker CI leg runs on 1-core runners
_MAX_SHARD_WORKERS = 64

_backend = "threads"
_num_threads = 1
_threshold = DEFAULT_THRESHOLD  # estimated flops below which kernels stay serial
_shard_workers = max(1, min(
    int(os.environ.get("REPRO_SHARD_WORKERS", 0) or (os.cpu_count() or 1)),
    _MAX_SHARD_WORKERS,
))
_pool: ThreadPoolExecutor | None = None
_pool_size = 0
_handle: "_PoolHandle | None" = None
_tls = threading.local()

# pool-utilization counters (repro.obs reads window deltas via pool_stats)
_stats_lock = threading.Lock()
_submitted = 0
_completed = 0
_busy_seconds = 0.0


def get_backend() -> str:
    return _backend


def set_backend(name: str) -> None:
    """Select the execution backend: ``serial``, ``threads`` or ``processes``."""
    global _backend
    if name not in BACKENDS:
        raise InvalidValue(
            f"unknown backend {name!r}; expected one of {BACKENDS}"
        )
    _backend = name


_kernel_backend = "interpreter"
_known_kernel_backends = set(KERNEL_BACKENDS)


def get_kernel_backend() -> str:
    return _kernel_backend


def set_kernel_backend(name: str) -> None:
    """Select the kernel suite for planned ops and fused chains.

    ``interpreter`` (default) runs the hand-written numpy kernels;
    ``codegen`` compiles eligible fused chains into generated kernels and
    falls back to the interpreter everywhere else.  Results are identical
    by contract — the backend is an execution strategy, never a semantic.
    """
    global _kernel_backend
    if name not in _known_kernel_backends:
        raise InvalidValue(
            f"unknown kernel backend {name!r}; expected one of "
            f"{tuple(sorted(_known_kernel_backends))}"
        )
    _kernel_backend = name


def register_kernel_backend(name: str) -> None:
    """Make *name* accepted by :func:`set_kernel_backend` (called by
    :func:`repro.kernels.register_backend` for out-of-tree suites)."""
    _known_kernel_backends.add(name)


def shard_workers() -> int:
    return _shard_workers


def set_shard_workers(n: int) -> None:
    """Worker count of the shard process pool (``processes`` backend).

    Unlike :func:`set_num_threads` this is *not* clamped to the host core
    count: process workers escape the GIL, and CI deliberately runs a
    2-worker pool on single-core runners to exercise the protocol.
    """
    global _shard_workers
    if n < 1:
        raise InvalidValue("shard worker count must be >= 1")
    _shard_workers = int(min(n, _MAX_SHARD_WORKERS))


def get_num_threads() -> int:
    # Inside a serial section the calling thread *is* a pool worker; letting
    # its kernels submit to the pool again would deadlock a bounded pool.
    if getattr(_tls, "serial", 0):
        return 1
    # the thread pool only fans out under its own backend: serial mode is
    # serial, and the processes backend owns all parallelism (its workers
    # must not find a nested thread pool under themselves)
    if _backend != "threads":
        return 1
    return _num_threads


@contextmanager
def serial_section():
    """Force :func:`get_num_threads` to 1 on this thread (re-entrant).

    The DAG scheduler wraps node execution in this so work already running
    *on* the pool never fans out into it again.
    """
    _tls.serial = getattr(_tls, "serial", 0) + 1
    try:
        yield
    finally:
        _tls.serial -= 1


def set_num_threads(n: int) -> None:
    """Set worker count for parallel kernels; 1 disables splitting."""
    global _num_threads
    if n < 1:
        raise InvalidValue("thread count must be >= 1")
    _num_threads = int(min(n, os.cpu_count() or 1))


def parallel_threshold() -> int:
    return _threshold


def set_parallel_threshold(flops: int) -> None:
    """Minimum estimated work (multiply-adds) before kernels parallelize."""
    global _threshold
    if flops < 0:
        raise InvalidValue("threshold must be non-negative")
    _threshold = int(flops)


def _run_counted(fn, args, kwargs):
    """Worker-side shim: count completion, and busy time when obs is live."""
    global _completed, _busy_seconds
    from ..obs import metrics as _metrics
    from ..obs import spans as _spans

    if _spans.current() is None and not _metrics.registry.enabled:
        try:
            return fn(*args, **kwargs)
        finally:
            with _stats_lock:
                _completed += 1
    import time

    t0 = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        busy = time.perf_counter() - t0
        with _stats_lock:
            _completed += 1
            _busy_seconds += busy
        _metrics.registry.inc("pool.tasks")
        _metrics.registry.observe("pool.task_seconds", busy)


class _PoolHandle:
    """Counting facade over the shared executor (same ``submit`` contract)."""

    __slots__ = ("_ex",)

    def __init__(self, ex: ThreadPoolExecutor):
        self._ex = ex

    def submit(self, fn, /, *args, **kwargs):
        global _submitted
        with _stats_lock:
            _submitted += 1
        return self._ex.submit(_run_counted, fn, args, kwargs)


def thread_pool() -> "_PoolHandle":
    """The shared pool, resized to the current thread count."""
    global _pool, _pool_size, _handle
    if _pool is None or _pool_size != _num_threads:
        if _pool is not None:
            _pool.shutdown(wait=True)
        _pool = ThreadPoolExecutor(max_workers=_num_threads)
        _pool_size = _num_threads
        _handle = _PoolHandle(_pool)
    return _handle


def pool_stats() -> dict:
    """Pool-utilization counters: tasks submitted/completed, busy seconds,
    current worker count.  Deltas over a window are the utilization signal
    :class:`repro.obs.Capture` reports."""
    with _stats_lock:
        return {
            "submitted": _submitted,
            "completed": _completed,
            "busy_seconds": _busy_seconds,
            "workers": _pool_size or _num_threads,
        }


def shutdown_pools() -> None:
    """Tear down both execution pools and unlink all shared memory.

    Idempotent and safe to call at any time; registered with :mod:`atexit`
    so an interpreter exiting mid-drain (crash, test abort, Ctrl-C) leaves
    no worker processes and no ``/dev/shm`` segments behind.
    """
    global _pool, _pool_size, _handle
    if _pool is not None:
        _pool.shutdown(wait=True)
        _pool = None
        _pool_size = 0
        _handle = None
    # the shard modules import lazily: a process that never used the
    # processes backend must not pay for (or fail on) their import here
    import sys

    shard_pool = sys.modules.get("repro.shard.pool")
    if shard_pool is not None:
        shard_pool.shutdown_pool()
    shard_sched = sys.modules.get("repro.shard.scheduler")
    if shard_sched is not None:
        shard_sched.invalidate_all()
    shard_shm = sys.modules.get("repro.shard.shm")
    if shard_shm is not None:
        shard_shm.registry.unlink_all()


atexit.register(shutdown_pools)


def row_blocks(work_per_row: np.ndarray, nblocks: int) -> list[slice]:
    """Partition rows into ≤ *nblocks* contiguous slices of balanced work.

    *work_per_row* is the estimated flops of each row (e.g. Σ over A(i,k) of
    nnz(B(k,:)) for SpGEMM).  Greedy prefix splitting on the cumulative work
    keeps blocks contiguous, which preserves the sortedness the flat-key
    representation relies on.
    """
    n = len(work_per_row)
    if n == 0 or nblocks <= 1:
        return [slice(0, n)]
    cum = np.cumsum(work_per_row)
    total = int(cum[-1])
    if total == 0:
        return [slice(0, n)]
    targets = (np.arange(1, nblocks) * total) // nblocks
    cuts = np.searchsorted(cum, targets, side="left") + 1
    bounds = np.unique(np.concatenate([[0], cuts, [n]]))
    return [
        slice(int(bounds[k]), int(bounds[k + 1]))
        for k in range(len(bounds) - 1)
        if bounds[k] < bounds[k + 1]
    ]
