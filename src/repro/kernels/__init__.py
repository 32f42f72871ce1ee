"""Kernel suites (``repro.kernels``).

The planner decides *what* runs (the DAG, fusion chains, levels); the
execution backend decides *where* (serial / threads / processes); this
package decides *how* the result T of each fused chain is computed.  Two
suites, named by ``repro.parallel.config.KERNEL_BACKENDS``:

* ``interpreter`` — the hand-written numpy kernels (default;
  :func:`.interpreter.interpret_chain`);
* ``codegen`` — compiles numba-eligible chains with ``@njit`` when numba
  is importable (once per process per chain shape) and interprets every
  other chain (:func:`.codegen.run_chain`).

Select with ``repro.parallel.set_kernel_backend("codegen")`` (or the
service's ``kernel_backend`` config field);
``operations.common.execute_chain`` dispatches on it.
"""

from __future__ import annotations

from .chain import chain_signature, is_stream_link, overwrite_shaped

__all__ = [
    "chain_signature",
    "is_stream_link",
    "overwrite_shaped",
]
