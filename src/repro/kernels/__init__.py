"""Pluggable kernel suites (``repro.kernels``).

The planner decides *what* runs (the DAG, fusion chains, levels); the
execution backend decides *where* (serial / threads / processes); this
package decides *how* the result T of each planned node is computed.  Two
suites register at import:

* ``interpreter`` — the hand-written numpy kernels (default);
* ``codegen`` — compiles eligible fused chains to generated kernels (once
  per process per chain shape), falling back to the interpreter per chain.

Select with ``repro.parallel.set_kernel_backend("codegen")`` (or the
service's ``kernel_backend`` config field).  Out-of-tree suites — e.g. a
SuiteSparse binding — subclass :class:`KernelBackend` and call
:func:`register_backend`.
"""

from __future__ import annotations

from .chain import chain_signature, is_stream_link, overwrite_shaped
from .codegen import CodegenBackend
from .interface import (
    KernelBackend,
    active_backend,
    available_backends,
    register_backend,
)
from .interpreter import InterpreterBackend

__all__ = [
    "KernelBackend",
    "InterpreterBackend",
    "CodegenBackend",
    "register_backend",
    "active_backend",
    "available_backends",
    "chain_signature",
    "is_stream_link",
    "overwrite_shaped",
]

register_backend(InterpreterBackend())
register_backend(CodegenBackend())
