"""Thread-parallel execution of heavy kernels.

The GraphBLAS C API is agnostic about intra-operation parallelism — it is
exactly the freedom the opaque-object design buys (section III-A).  Here the
expensive kernel (SpGEMM) can optionally split its row space across a thread
pool; numpy releases the GIL inside the vectorized segments, so laptop-scale
speedups are real though modest.

Disabled by default (``set_num_threads(1)``) so results are deterministic
byte-for-byte; the ablation benchmark flips it on.
"""

from .config import (
    get_backend,
    get_kernel_backend,
    get_num_threads,
    parallel_threshold,
    pool_stats,
    row_blocks,
    serial_section,
    set_backend,
    set_kernel_backend,
    set_num_threads,
    set_parallel_threshold,
    set_shard_workers,
    shard_workers,
    shutdown_pools,
    thread_pool,
)

__all__ = [
    "get_backend",
    "set_backend",
    "get_kernel_backend",
    "set_kernel_backend",
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
