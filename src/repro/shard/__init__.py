"""Sharded multi-process execution backend (``backend = "processes"``).

Escapes the GIL the way distributed GraphBLAS implementations escape the
node: data lives in a block distribution (here: shared-memory CSR
segments cut into row stripes), computation is described by tiny shipped
descriptors (OpSpecs → :class:`~repro.shard.opspec.ShardTask`), and the
stripe partials concatenate back into the serial kernel's key order.  The
paper's opaque-object design (section III) is what makes the whole
backend a drop-in: no API surface changes, containers simply complete
with bit-identical content.

Modules
-------
``shm``        refcounted SharedMemory registry, leak-proof teardown
``layout``     BlockLayout descriptors; publish/attach CSR segments
``protocol``   pickle-framed pipe messages (Task/Result/Free/…)
``opspec``     shippability gate + block task planning
``worker``     spawned worker loop (attach → the op's kernel body over a
               row window → reply)
``pool``       persistent spawn pool, master/worker dispatch, crash → Panic
``merge``      stripe concatenation
``scheduler``  ``compute(spec, mask_view)``: T for one op from the pool — what
               ``execute_standard`` asks under this backend; publication
               cache, obs wiring
"""

from .layout import BlockLayout, attach_csr, publish_csr
from .opspec import NodePlan, ShardTask, plan_spec
from .pool import ShardPool, get_pool, pool_stats, shutdown_pool
from .scheduler import compute, invalidate_all, publication_stats
from .shm import ShmRegistry, registry

__all__ = [
    "BlockLayout",
    "publish_csr",
    "attach_csr",
    "ShardTask",
    "NodePlan",
    "plan_spec",
    "ShardPool",
    "get_pool",
    "shutdown_pool",
    "pool_stats",
    "compute",
    "publication_stats",
    "invalidate_all",
    "ShmRegistry",
    "registry",
]
