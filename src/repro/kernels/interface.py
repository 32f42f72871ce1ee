"""The kernel-backend interface: one contract, interchangeable suites.

A :class:`KernelBackend` is *how* a planned operation computes its internal
result T — orthogonal to the execution backend (serial / threads /
processes), which decides *where* work runs.  Two suites ship in-tree:

* ``interpreter`` — the hand-written numpy kernels (the default);
* ``codegen`` — compiles eligible fused chains into generated kernels
  (numba ``@njit`` when importable, numpy-expression stitching otherwise)
  and delegates everything else to the interpreter.

A SuiteSparse-shaped suite would slot in the same way: register an
instance with :func:`register_backend` and select it through
``repro.parallel.set_kernel_backend``.  The contract is semantic
bit-identity — a backend is an execution strategy, never a semantic
(paper section III-B) — and the differential fuzzer holds every registered
suite to it.
"""

from __future__ import annotations

__all__ = [
    "KernelBackend",
    "register_backend",
    "active_backend",
    "available_backends",
]


class KernelBackend:
    """Base/protocol of a kernel suite.

    Subclasses override :meth:`run_chain`, which takes planner OpSpecs and
    must leave every output bit-identical to the interpreter.
    """

    #: the name ``repro.parallel.set_kernel_backend`` selects this suite by
    name = "abstract"

    def run_chain(self, specs) -> None:
        """Execute a fused chain ``[producer, link, ...]`` end to end —
        stream the producer's T through every link and run the tail's
        write pipeline."""
        raise NotImplementedError


_REGISTRY: dict[str, KernelBackend] = {}


def register_backend(backend: KernelBackend) -> None:
    """Register *backend* under its name and make the name selectable via
    :func:`repro.parallel.set_kernel_backend`."""
    from ..parallel import register_kernel_backend

    _REGISTRY[backend.name] = backend
    register_kernel_backend(backend.name)


def available_backends() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def active_backend() -> KernelBackend:
    """The suite selected by ``repro.parallel.get_kernel_backend()``."""
    from ..parallel import get_kernel_backend

    return _REGISTRY[get_kernel_backend()]
