"""The codegen backend: fused chains compiled with numba ``@njit``.

A chain compiles to a single ``@njit`` scalar loop when numba is
importable and the chain is a pure same-dtype ``apply`` pipeline whose
operators have curated scalar expressions
(:func:`repro.kernels.chain.numba_eligible`,
:data:`repro.kernels.chain.NUMBA_SCALAR_EXPRS`).  numba is an optional
extra, never a dependency.  Every other chain — and every chain on a host
without numba — runs :func:`repro.kernels.interpreter.interpret_chain`.

Each chain shape is generated and compiled once per process and kept in
one in-memory map; nothing is written to disk.  Every failure mode —
compile error, runtime exception inside a generated kernel — lands on the
interpreter, which is always correct; the codegen backend can be slower
than the interpreter, never wrong.
"""

from __future__ import annotations

from .chain import (
    NUMBA_SCALAR_EXPRS,
    _split_op,
    chain_signature,
    numba_eligible,
)
from .interpreter import interpret_chain

__all__ = [
    "run_chain",
    "build_numba_source",
    "load_or_build",
    "clear_kernels",
]

#: frozen signature → compiled fused_chain callable, or False for a chain
#: shape known not to compile or to have failed at run time
_compiled: dict = {}

_numba_probe: bool | None = None


def _numba_available() -> bool:
    global _numba_probe
    if _numba_probe is None:
        try:
            import numba  # noqa: F401

            _numba_probe = True
        except Exception:
            _numba_probe = False
    return _numba_probe


def clear_kernels() -> None:
    """Drop every per-process compiled kernel (test isolation helper)."""
    _compiled.clear()


def _freeze(sig: dict) -> tuple:
    """A hashable flat mirror of a signature — field order is fixed by
    construction in :func:`chain_signature`, so a straight tuple is enough.
    The thunk enters as its ``repr``: ``1``, ``1.0`` and ``True`` render
    differently, and a NaN equals itself."""
    p = sig["producer"]
    return (
        p["kind"], p["op"], p["out"], p["mask"], p["replace"],
        tuple(
            (l["role"], l["op"], l["in"], l["t"], l["out"],
             l["mask"], l["replace"], l["accum"], repr(l.get("thunk")))
            for l in sig["links"]
        ),
    )


def _compilable(specs) -> dict | None:
    """The chain's signature when this host would compile it, else None.
    Without numba no signature is extracted at all."""
    if not _numba_available():
        return None
    sig = chain_signature(specs)
    return sig if sig is not None and numba_eligible(sig) else None


# --------------------------------------------------------------------------
# Source generation
# --------------------------------------------------------------------------

_NP_OF = {
    "BOOL": "bool_",
    "INT8": "int8", "INT16": "int16", "INT32": "int32", "INT64": "int64",
    "UINT8": "uint8", "UINT16": "uint16", "UINT32": "uint32",
    "UINT64": "uint64", "FP32": "float32", "FP64": "float64",
}


def build_numba_source(sig: dict) -> str:
    """A single njit scalar loop for a pure same-dtype apply chain.

    Eligibility (:func:`numba_eligible`) guarantees every cast in the
    interpreter path is the identity and every operator has a curated
    scalar expression, so the whole chain collapses to one pass over the
    values.  ``apply`` never changes keys, so the links' mask filters
    commute with the value maps and combine into one up-front AND.  The
    tail link's mask is one of them, so the chain hands T over inside it,
    as every source of T must (:func:`repro.operations.common.write_step`).

    The plain ``import numba`` is deliberate: in a process without numba
    the module fails to exec and the chain is marked known-bad.
    """
    dtype = _split_op(sig["links"][0]["in"])[1]
    np_name = _NP_OF[dtype]
    exprs = [
        NUMBA_SCALAR_EXPRS[_split_op(link["op"])[0]][1]
        for link in sig["links"]
    ]
    lines = [
        '"""Generated repro kernel — do not edit, regenerate."""',
        "import numpy as np",
        "import numba",
        "",
        f"_ONE = np.{np_name}(1)",
        "",
        "",
        "@numba.njit(cache=False)",
        "def _loop(vals, out):",
        "    one = _ONE",
        "    for i in range(vals.shape[0]):",
        "        x = vals[i]",
    ]
    lines += [f"        x = {expr}" for expr in exprs]
    lines += [
        "        out[i] = x",
        "",
        "",
        "def fused_chain(keys, vals, masks):",
        "    if len(keys):",
        "        keep = None",
        "        for m in masks:",
        "            if m is not None:",
        "                k = m.allows(keys)",
        "                keep = k if keep is None else keep & k",
        "        if keep is not None:",
        "            keys, vals = keys[keep], vals[keep]",
        f"    out = np.empty(len(vals), dtype=np.{np_name})",
        "    _loop(np.ascontiguousarray(vals), out)",
        "    return keys, out",
        "",
    ]
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Compile
# --------------------------------------------------------------------------

def _compile(source: str):
    ns: dict = {}
    try:
        exec(compile(source, "<repro-kernel>", "exec"), ns)
    except Exception:
        return None
    fn = ns.get("fused_chain")
    return fn if callable(fn) else None


def load_or_build(sig: dict):
    """``(fused_chain, key)`` for a numba-eligible signature, compiled on
    first use.  ``(None, key)`` means this chain cannot compile here (or
    its kernel failed at run time); run the interpreter."""
    key = _freeze(sig)
    fn = _compiled.get(key)
    if fn is None:
        fn = _compiled[key] = _compile(build_numba_source(sig)) or False
    return fn or None, key


def _discard(key: tuple) -> None:
    """A generated kernel misbehaved at run time: never run it again in
    this process."""
    _compiled[key] = False


def run_chain(specs) -> None:
    """Run a fused chain ``[producer, link, ...]`` end to end: through its
    compiled kernel when there is one, on the interpreter otherwise."""
    sig = _compilable(specs)
    fn = key = None
    if sig is not None:
        fn, key = load_or_build(sig)
    if fn is None:
        interpret_chain(specs)
        return
    _run_compiled(specs, fn, key)


def _run_compiled(specs, fn, key) -> None:
    from ..containers.mask import build_mask_view
    from ..obs import spans as _obs_spans
    from ..operations._kernels import _observed_kernel
    from ..operations.common import _producer_result, run_write_pipeline

    masks = [
        build_mask_view(s.mask, s.desc.mask_complement, s.desc.mask_structure)
        for s in specs[1:]
    ]
    keys, vals = _producer_result(specs[0])
    steps = len(keys) * (len(specs) - 1)

    def run(acc):
        out = fn(keys, vals, masks)
        if acc is not None:
            acc.append(steps)
        return out

    try:
        t_keys, t_vals = _observed_kernel(
            "chain[compiled]", run, lambda: (steps, len(keys)),
            backend="codegen", compiled=True,
        )
    except Exception:
        # producer kernels are pure, so rerunning the whole chain on the
        # interpreter is safe; the bad kernel is retired
        _discard(key)
        interpret_chain(specs)
        return
    _obs_spans.annotate(compiled=True)
    tail = specs[-1]
    # masks[-1] is the tail's: fused_chain already cut T to it
    run_write_pipeline(
        tail.out, t_keys, t_vals, tail.t_type, tail.accum, masks[-1],
        tail.desc.replace,
    )
